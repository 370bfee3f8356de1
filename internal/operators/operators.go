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
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) {
			out := make([]B, len(data))
			for i, r := range data {
				out[i] = f(r)
			}
			dataflow.SendBatch(c, 0, t, out)
		})
	})
	return dataflow.Typed[B](outs[0])
}

// Filter keeps records satisfying pred.
func Filter[A any](w *dataflow.Worker, name string, s dataflow.Stream[A], pred func(A) bool) dataflow.Stream[A] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, dataflow.Pipeline[A]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) {
			var out []A
			for _, r := range data {
				if pred(r) {
					out = append(out, r)
				}
			}
			dataflow.SendBatch(c, 0, t, out)
		})
	})
	return dataflow.Typed[A](outs[0])
}

// ExchangeBy re-partitions a stream across workers by a hash of each record.
func ExchangeBy[A any](w *dataflow.Worker, name string, s dataflow.Stream[A], hash func(A) uint64) dataflow.Stream[A] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, dataflow.Exchange[A]{Hash: hash})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) {
			dataflow.SendBatch(c, 0, t, data)
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
