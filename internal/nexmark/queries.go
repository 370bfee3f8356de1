package nexmark

import (
	"fmt"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// Impl selects the implementation family of a query.
type Impl int

const (
	// Native is the hand-tuned timely implementation (non-migratable).
	Native Impl = iota
	// Megaphone uses the migrateable stateful operator interface.
	Megaphone
)

// String names the implementation.
func (i Impl) String() string {
	if i == Native {
		return "native"
	}
	return "megaphone"
}

// Params configures a query instance.
type Params struct {
	Impl    Impl
	LogBins int
	// Transfer is the state codec of the Megaphone variants
	// (core.TransferBinary when nil). The stateful q3–q8 state types and
	// the MapState-backed aggregation stages implement core.BinaryState, so
	// their bins ship in the binary format; the empty struct{} bins of the
	// stateless q1/q2 fall back to gob per bin.
	Transfer core.Codec
	// AuctionMod is Q2's filter modulus.
	AuctionMod uint64
	// WindowEpochs is the window length for Q5/Q7/Q8 (time-dilated as in
	// the paper); SlideEpochs is Q5's slide.
	WindowEpochs Time
	SlideEpochs  Time
	// Category is Q3's auction category filter.
	Category uint64
	// Meter receives per-bin load from every megaphone stage of the query
	// (nil disables metering). Stages share the meter, so it aggregates the
	// whole query's service load.
	Meter *core.LoadMeter
	// Sink, when non-nil, receives every output batch as rendered lines in
	// application order, together with its timestamp (for output-equivalence
	// checks across runs, e.g. cluster vs single-process; batch granularity
	// matters because running aggregates are only comparable at
	// end-of-epoch positions). Called from worker goroutines; must be safe
	// for concurrent use.
	Sink func(t Time, lines []string)
	// Checkpoint enables epoch-aligned checkpoints of every megaphone
	// stage of the query (each drains into its own subdirectory of
	// Checkpoint.Dir); Restore maps stage names to their loaded
	// checkpoints. Native implementations have no migrateable state and
	// ignore both.
	Checkpoint *core.CheckpointConfig
	Restore    map[string]*core.Restore
}

// config renders the megaphone operator Config for one of the query's
// stages.
func (p Params) config(name string) core.Config {
	cfg := core.Config{Name: name, LogBins: p.LogBins, Transfer: p.Transfer, Meter: p.Meter, Checkpoint: p.Checkpoint}
	if p.Restore != nil {
		cfg.Restore = p.Restore[name]
	}
	return cfg
}

func (p *Params) defaults() {
	if p.AuctionMod == 0 {
		p.AuctionMod = 13
	}
	if p.WindowEpochs == 0 {
		p.WindowEpochs = 60
	}
	if p.SlideEpochs == 0 {
		p.SlideEpochs = 10
	}
	if p.Category == 0 {
		p.Category = 10
	}
	if p.LogBins == 0 {
		p.LogBins = 8
	}
}

// QueryNames lists the implemented queries.
var QueryNames = []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}

// BuildQuery constructs the named query on worker w over the events stream,
// returning a probe on its output. Megaphone variants take their commands
// from ctl; native variants ignore it.
func BuildQuery(w *dataflow.Worker, name string, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) *dataflow.Probe {
	p.defaults()
	switch name {
	case "q1":
		return probeOf(w, p, BuildQ1(w, p, ctl, events))
	case "q2":
		return probeOf(w, p, BuildQ2(w, p, ctl, events))
	case "q3":
		return probeOf(w, p, BuildQ3(w, p, ctl, events))
	case "q4":
		return probeOf(w, p, BuildQ4(w, p, ctl, events))
	case "q5":
		return probeOf(w, p, BuildQ5(w, p, ctl, events))
	case "q6":
		return probeOf(w, p, BuildQ6(w, p, ctl, events))
	case "q7":
		return probeOf(w, p, BuildQ7(w, p, ctl, events))
	case "q8":
		return probeOf(w, p, BuildQ8(w, p, ctl, events))
	default:
		panic(fmt.Sprintf("nexmark: unknown query %q", name))
	}
}

func probeOf[T any](w *dataflow.Worker, p Params, s dataflow.Stream[T]) *dataflow.Probe {
	if p.Sink != nil {
		sink := p.Sink
		b := w.NewOp("out-sink", 0)
		dataflow.Connect(b, s, dataflow.Pipeline[T]{})
		b.Build(func(c *dataflow.OpCtx) {
			dataflow.ForEachBatch(c, 0, func(t Time, data []T) {
				lines := make([]string, len(data))
				for i := range data {
					lines[i] = fmt.Sprintf("%v", data[i])
				}
				sink(t, lines)
			})
		})
	}
	return dataflow.NewProbe(w, s)
}

// mergeNative concatenates two streams into Either values for native binary
// operators.
func mergeNative[A, B any](w *dataflow.Worker, name string, s1 dataflow.Stream[A], s2 dataflow.Stream[B]) dataflow.Stream[core.Either[A, B]] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s1, dataflow.Pipeline[A]{})
	dataflow.Connect(b, s2, dataflow.Pipeline[B]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) {
			out := make([]core.Either[A, B], len(data))
			for i, a := range data {
				out[i] = core.Left[A, B](a)
			}
			dataflow.SendBatch(c, 0, t, out)
		})
		dataflow.ForEachBatch(c, 1, func(t Time, data []B) {
			out := make([]core.Either[A, B], len(data))
			for i, v := range data {
				out[i] = core.Right[A, B](v)
			}
			dataflow.SendBatch(c, 0, t, out)
		})
	})
	return dataflow.Typed[core.Either[A, B]](outs[0])
}
