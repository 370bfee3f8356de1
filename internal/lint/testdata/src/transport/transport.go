// Package transport is a fixture stand-in for internal/transport: the
// sendunderlock analyzer recognizes Send-family methods on types declared
// in a package named transport.
package transport

type Transport struct{}

func (t *Transport) Send(to int, kind byte, payload []byte) {}
