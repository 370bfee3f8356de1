package core

import (
	"megaphone/internal/dataflow"
)

// KV is a keyed record for the state-machine interface.
type KV[K comparable, V any] struct {
	Key K
	Val V
}

// StateMachine builds the simplest migrateable stateful operator (Listing 1
// of the paper): the input is (key, val) pairs, state is a per-bin map from
// keys to W, and fold updates one key's state, emitting outputs.
//
// Compare operators.StateMachine for the native, non-migratable equivalent.
func StateMachine[K comparable, V, W, O any](
	w *dataflow.Worker,
	cfg Config,
	control dataflow.Stream[Move],
	input dataflow.Stream[KV[K, V]],
	hash func(K) uint64,
	fold func(key K, val V, state *W, emit func(O)),
	handle *Handle[KV[K, V], MapState[K, W], O],
) dataflow.Stream[O] {
	return Operator(w, cfg, control, input, Ops[KV[K, V], MapState[K, W], O]{
		Hash:     func(r KV[K, V]) uint64 { return hash(r.Key) },
		NewState: func() *MapState[K, W] { return &MapState[K, W]{M: make(map[K]W)} },
		Fold: func(t Time, r KV[K, V], s *MapState[K, W], n *Notificator[KV[K, V], MapState[K, W], O], emit func(O)) {
			st := s.M[r.Key]
			fold(r.Key, r.Val, &st, emit)
			s.M[r.Key] = st
		},
	}, handle)
}

// MapState is per-bin keyed state: a map from keys to per-key state. It is
// a named struct (not a bare map) so gob round-trips it as a value.
type MapState[K comparable, W any] struct {
	M map[K]W
}

// Unary builds a migrateable operator with one data input and arbitrary
// per-bin state, the general form of Listing 1. Fold receives each record in
// timestamp order with its bin state and a notificator for scheduling
// post-dated records.
func Unary[R, S, O any](
	w *dataflow.Worker,
	cfg Config,
	control dataflow.Stream[Move],
	input dataflow.Stream[R],
	hash func(R) uint64,
	newState func() *S,
	fold func(t Time, rec R, state *S, n *Notificator[R, S, O], emit func(O)),
	handle *Handle[R, S, O],
) dataflow.Stream[O] {
	return Operator(w, cfg, control, input, Ops[R, S, O]{
		Hash:     hash,
		NewState: newState,
		Fold:     fold,
	}, handle)
}

// Either is the sum of a binary operator's two input record types. Binary
// operators are implemented as a unary operator over Either (the paper's
// note that multi-input operators are treated as single-input operators
// whose migration acts on both inputs at once).
type Either[A, B any] struct {
	Left    A
	Right   B
	IsRight bool
}

// Left injects a first-input record.
func Left[A, B any](a A) Either[A, B] { return Either[A, B]{Left: a} }

// Right injects a second-input record.
func Right[A, B any](b B) Either[A, B] { return Either[A, B]{Right: b, IsRight: true} }

// Binary builds a migrateable operator with two data inputs that share
// per-bin state (e.g. the two sides of a streaming join). Records from both
// inputs are merged into one stream of Either values; both sides of a key
// hash to the same bin and migrate together.
func Binary[A, B, S, O any](
	w *dataflow.Worker,
	cfg Config,
	control dataflow.Stream[Move],
	input1 dataflow.Stream[A],
	input2 dataflow.Stream[B],
	hash1 func(A) uint64,
	hash2 func(B) uint64,
	newState func() *S,
	fold func(t Time, rec Either[A, B], state *S, n *Notificator[Either[A, B], S, O], emit func(O)),
	handle *Handle[Either[A, B], S, O],
) dataflow.Stream[O] {
	merged := mergeEither(w, cfg.Name+"-merge", input1, input2)
	return Operator(w, cfg, control, merged, Ops[Either[A, B], S, O]{
		Hash: func(e Either[A, B]) uint64 {
			if e.IsRight {
				return hash2(e.Right)
			}
			return hash1(e.Left)
		},
		NewState: newState,
		Fold:     fold,
	}, handle)
}

// mergeEither concatenates two streams into one stream of Either values.
func mergeEither[A, B any](w *dataflow.Worker, name string, s1 dataflow.Stream[A], s2 dataflow.Stream[B]) dataflow.Stream[Either[A, B]] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, s1, dataflow.Pipeline[A]{})
	dataflow.Connect(b, s2, dataflow.Pipeline[B]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []A) {
			out := dataflow.NewBatch[Either[A, B]](c, len(data))
			for _, a := range data {
				out.Recs = append(out.Recs, Left[A, B](a))
			}
			dataflow.SendOwned(c, 0, t, out)
		})
		dataflow.ForEachBatch(c, 1, func(t Time, data []B) {
			out := dataflow.NewBatch[Either[A, B]](c, len(data))
			for _, b := range data {
				out.Recs = append(out.Recs, Right[A, B](b))
			}
			dataflow.SendOwned(c, 0, t, out)
		})
	})
	return dataflow.Typed[Either[A, B]](outs[0])
}
