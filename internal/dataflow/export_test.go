package dataflow

// WithInboxSize returns c with a per-worker inbox of n batches, so a test
// can make sends block where the default buffer would absorb them.
func WithInboxSize(c Config, n int) Config {
	c.inboxSize = n
	return c
}
