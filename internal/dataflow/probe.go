package dataflow

import (
	"megaphone/internal/progress"
)

// Probe observes the frontier on a dataflow edge from outside the dataflow
// (timely's `probe`). Megaphone's F operators use probes to monitor the
// output frontier of the S operators, and harnesses use probes to measure
// end-to-end latency.
//
// A probe is implemented as a sink operator: it consumes and discards the
// batches of the probed stream, and exposes the progress tracker's frontier
// at its own input port, which by construction is the frontier of the
// probed stream.
type Probe struct {
	tracker func() *progress.Tracker
	port    progress.Port
}

// NewProbe attaches a probe to stream s on worker w and returns its handle.
// Every worker must attach its own probe instance (the graph must be
// identical on all workers); the returned handles are interchangeable since
// the frontier is global.
func NewProbe[T any](w *Worker, s Stream[T]) *Probe {
	b := w.NewOp("probe", 0)
	Connect(b, s, Pipeline[T]{})
	node := progress.Node(w.nodeSeq) // assigned by Build below
	b.Build(func(c *OpCtx) {
		c.ForEach(0, func(Time, any) {})
	})
	return &Probe{
		tracker: func() *progress.Tracker { return w.exec.tracker },
		port:    progress.Port{Node: node, Port: 0},
	}
}

// Frontier returns the least timestamp that may still arrive at the probe,
// or None if the probed stream is complete.
func (p *Probe) Frontier() Time { return p.tracker().Frontier(p.port) }
