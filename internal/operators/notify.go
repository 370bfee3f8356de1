package operators

import (
	"container/heap"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// timeHeap is a min-heap of logical times.
type timeHeap []Time

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *timeHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h timeHeap) Peek() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0], true
}

// UnaryNotify builds a frontier-driven stateful operator. Incoming batches
// are buffered per timestamp; once the input frontier passes a timestamp,
// all of its records are handed to f in timestamp order together with a
// per-worker state value. This is timely's unary operator with a
// Notificator: outputs for time t are emitted only when t is complete.
//
// The state is per worker (not per key) and cannot migrate; this is the
// native baseline against which Megaphone's migratable operators are
// measured (Section 5.2 of the paper).
func UnaryNotify[A, B, S any](
	w *dataflow.Worker,
	name string,
	s dataflow.Stream[A],
	pact dataflow.Pact[A],
	newState func() S,
	f func(t Time, data []A, state S, emit func(B)),
) dataflow.Stream[B] {
	state := newState()
	pending := make(map[Time][]A)
	var times timeHeap
	var out dataflow.Batch[B] // the batch being built for the time f runs on
	emit := func(r B) { out.Recs = append(out.Recs, r) }

	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, pact)
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) {
			if _, ok := pending[t]; !ok {
				heap.Push(&times, t)
			}
			pending[t] = append(pending[t], data...)
		})
		frontier := c.Frontier(0)
		// Hold the output at the earliest incomplete buffered time so the
		// downstream frontier cannot pass work we have deferred.
		for {
			t, ok := times.Peek()
			if !ok || t >= frontier {
				break
			}
			heap.Pop(&times)
			data := pending[t]
			delete(pending, t)
			out = dataflow.NewBatch[B](c, 0)
			f(t, data, state, emit)
			dataflow.SendOwned(c, 0, t, out)
		}
		if t, ok := times.Peek(); ok {
			c.Hold(0, t)
		} else {
			c.DropHold(0)
		}
	})
	return dataflow.Typed[B](outs[0])
}

// StateMachine is a native keyed state machine: records are exchanged by a
// key hash, buffered until their time completes, and applied in timestamp
// order to per-key state held in a worker-local map. It mirrors timely's
// `state_machine` operator and is the non-migratable counterpart of
// Megaphone's StateMachine.
func StateMachine[K comparable, V, B, S any](
	w *dataflow.Worker,
	name string,
	s dataflow.Stream[KV[K, V]],
	hash func(K) uint64,
	fold func(key K, val V, state *S, emit func(B)),
) dataflow.Stream[B] {
	states := make(map[K]*S)
	return UnaryNotify(w, name, s,
		dataflow.Exchange[KV[K, V]]{Hash: func(r KV[K, V]) uint64 { return hash(r.Key) }},
		func() struct{} { return struct{}{} },
		func(t Time, data []KV[K, V], _ struct{}, emit func(B)) {
			for _, r := range data {
				st, ok := states[r.Key]
				if !ok {
					st = new(S)
					states[r.Key] = st
				}
				fold(r.Key, r.Val, st, emit)
			}
		})
}

// KV is a keyed record: core.KV, so that the native and the migrateable
// state machines share one record type and its binary wire encoding.
type KV[K comparable, V any] = core.KV[K, V]
