package operators

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// UnaryNotify builds a frontier-driven stateful operator: UnaryScheduled
// for logic that never schedules. Once the input frontier passes a
// timestamp, all of its records are handed to f in timestamp order together
// with a per-worker state value. This is timely's unary operator with a
// Notificator: outputs for time t are emitted only when t is complete. f
// must not keep data after it returns.
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
	return UnaryScheduled(w, name, s, pact, newState,
		func(t Time, data []A, state S, _ func(Time), emit func(B)) { f(t, data, state, emit) })
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
