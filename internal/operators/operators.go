// Package operators provides the standard library of native timely-style
// operators: stateless record-at-a-time transforms and frontier-driven
// stateful operators. These are the "native" implementations the paper's
// evaluation compares Megaphone against; they cannot migrate their state.
package operators

import (
	"megaphone/internal/dataflow"
)

// Time aliases the runtime's logical timestamp.
type Time = dataflow.Time

// Map applies f to every record.
func Map[A, B any](w *dataflow.Worker, name string, s dataflow.Stream[A], f func(A) B) dataflow.Stream[B] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, dataflow.Pipeline[A]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) { mapBatch(c, t, data, f) })
	})
	return dataflow.Typed[B](outs[0])
}

// mapBatch is Map's per-batch body: f of each record, appended into a
// recycled envelope and sent as it is.
//
//megalint:hotpath
func mapBatch[A, B any](c *dataflow.OpCtx, t Time, data []A, f func(A) B) {
	out := dataflow.NewBatch[B](c, len(data))
	for i := range data {
		out.Recs = append(out.Recs, f(data[i]))
	}
	dataflow.SendOwned(c, 0, t, out)
}

// Filter keeps records satisfying pred.
func Filter[A any](w *dataflow.Worker, name string, s dataflow.Stream[A], pred func(A) bool) dataflow.Stream[A] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, dataflow.Pipeline[A]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) { filterBatch(c, t, data, pred) })
	})
	return dataflow.Typed[A](outs[0])
}

// filterBatch is Filter's per-batch body: the records pred keeps, appended
// into a recycled envelope and sent as it is (an empty one is released).
//
//megalint:hotpath
func filterBatch[A any](c *dataflow.OpCtx, t Time, data []A, pred func(A) bool) {
	out := dataflow.NewBatch[A](c, 0)
	for i := range data {
		if pred(data[i]) {
			out.Recs = append(out.Recs, data[i])
		}
	}
	dataflow.SendOwned(c, 0, t, out)
}

// ExchangeBy re-partitions a stream across workers by a hash of each record.
// The exchange happens on the way in; the operator forwards the partitions
// it receives without copying them.
func ExchangeBy[A any](w *dataflow.Worker, name string, s dataflow.Stream[A], hash func(A) uint64) dataflow.Stream[A] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, dataflow.Exchange[A]{Hash: hash})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.TakeEachBatch(c, 0, func(t Time, in dataflow.Batch[A]) {
			dataflow.SendOwned(c, 0, t, in)
		})
	})
	return dataflow.Typed[A](outs[0])
}

// Sink consumes a stream, invoking f per batch; it produces no output.
func Sink[A any](w *dataflow.Worker, name string, s dataflow.Stream[A], f func(Time, []A)) {
	b := w.NewOp(name, 0)
	dataflow.Connect(b, s, dataflow.Pipeline[A]{})
	b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) { f(t, data) })
	})
}
