package dataflow

import (
	"sync/atomic"
	"unsafe"

	"megaphone/internal/freelist"
)

// Batch envelopes carry the record buffers flowing along edges. A batch
// traveling an edge as `any` is either a raw []T (remote decode, forwarding
// of one — garbage-collected) or a *batchEnv[T], a refcounted wrapper.
// Envelope pointers box into `any` without allocating, which is what takes
// the exchange hot path from one interface-box allocation per batch hop to
// zero.
//
// A buffer flows one way. The runtime's own buffers — what NewBatch hands
// an operator to build in, what a partitioner splits a batch into — return
// to a per-worker free list when their last consumer is done, and the next
// NewBatch or partition of the same element type builds in them again. A
// driver's buffer (SendBatchAt, adopted by adoptEnv) is consumed, not
// recycled: the driver allocates a fresh one per batch and nothing asks a
// free list for one of its size, so its last consumer drops it for the
// garbage collector and only the bare envelope is kept for the next
// adoption.
//
// Ownership protocol:
//   - Wrappers created on behalf of a producer (adoptEnv for input staging,
//     NewBatch for an operator's output) start with refs=1: the creator owns
//     them until OpCtx.Send drops that reference after enqueueing.
//   - Wrappers created by partitioners (partitionBy) start with refs=0:
//     they are borrowed until Send increfs them per enqueue, and released
//     outright if their destination turns out to be retired.
//   - Every enqueue (local inbox or remote outMsg) increfs; every consumer
//     releases: ForEach after the callback, sendRemote after encoding, and an
//     operator that kept its input (TakeEachBatch) whenever it is done with
//     it — possibly many schedulings later, or from the crash barrier's
//     purge. The count reaches zero only when no reference remains, so a
//     buffer is never recycled while a queue, callback, operator or encoder
//     can still see it.
//
// Free lists are per worker and only touched from that worker's goroutine
// (producers get from their own list, the final releaser puts to its own) or
// while the worker is parked in Pause, so they need no locking; refs is
// atomic because a broadcast envelope is released concurrently by the
// workers that consumed it. What a free list keeps is decided by
// internal/freelist's ageing rule, trimmed on the worker's scheduling count
// (see Worker.trim).
type batchEnv[T any] struct {
	s       []T
	refs    atomic.Int32
	adopted bool // s is a driver's buffer: dropped on release, never pooled
}

// adoptedEnv keys a worker's free list of bare adopted envelopes of element
// type T (see envPool.typ): released adopted envelopes wait there, without
// a buffer, for the next adoptEnv.
type adoptedEnv[T any] struct{}

// envPool is one worker's free list for a single envelope element type. The
// lists are segregated by type because a saturated dataflow releases
// envelopes in per-operator bursts: a single mixed stack buries one edge's
// type under hundreds of another's, and any bounded scan then misses
// constantly. typ is a typed nil boxed as `any` — *batchEnv[T] for the
// runtime's buffers, *adoptedEnv[T] for bare adopted envelopes — and
// interface equality on two typed nils compares just the type words, so the
// lookup needs no reflection.
type envPool struct {
	typ  any
	free freelist.List[any] // of *batchEnv[T] matching typ
}

// batchRef is the type-erased envelope handle OpCtx.Send and the consumers
// use; raw []T batches simply fail the assertion and are left to the GC.
type batchRef interface {
	incref()
	release(w *Worker)
}

//megalint:hotpath
func (e *batchEnv[T]) incref() { e.refs.Add(1) }

// release drops one reference. The last one recycles the envelope into w's
// free lists: a runtime buffer is cleared (pooled buffers must not pin
// record-internal pointers — migrated state payloads can be large) and kept
// with its envelope for the next NewBatch or partition; an adopted buffer is
// left to the garbage collector and only its envelope is kept, for the next
// adoptEnv. An adopted envelope starts owned (refs=1), so releasing one past
// zero is a second release by some consumer, and panics: the envelope may
// already carry the next batch. (A partition starts borrowed, at zero, and
// Send releases it from there when its destination is retired.)
//
//megalint:hotpath
func (e *batchEnv[T]) release(w *Worker) {
	n := e.refs.Add(-1)
	if n > 0 {
		return
	}
	if e.adopted {
		if n < 0 {
			panic("dataflow: adopted batch released more times than it was referenced")
		}
		e.s = nil
		w.poolFor(any((*adoptedEnv[T])(nil))).Put(e, 0, 0)
		return
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	used := len(e.s) * size
	clear(e.s)
	e.s = e.s[:0]
	w.poolFor(any((*batchEnv[T])(nil))).Put(e, used, cap(e.s)*size)
}

// poolFor returns w's free list for the envelope type key names (see
// envPool.typ), registering it on first use. The pool list is a handful of
// entries (one per envelope type crossing this worker), so the linear type
// match stays cheaper than a map.
//
//megalint:hotpath
func (w *Worker) poolFor(key any) *freelist.List[any] {
	for i := range w.envPools {
		if p := &w.envPools[i]; p.typ == key {
			return &p.free
		}
	}
	//megalint:allow hotalloc first use of a new envelope type registers its pool; once per type per worker
	w.envPools = append(w.envPools, envPool{typ: key, free: freelist.New[any](&w.envRetained)})
	return &w.envPools[len(w.envPools)-1].free
}

// getEnv returns an envelope of element type T with capacity for n records
// and refs=0 (borrowed), reusing w's free list for T when it can.
//
//megalint:hotpath
func getEnv[T any](w *Worker, n int) *batchEnv[T] {
	if got, ok := w.poolFor(any((*batchEnv[T])(nil))).Get(); ok {
		e := got.(*batchEnv[T])
		e.refs.Store(0)
		if cap(e.s) < n {
			//megalint:allow hotalloc pool hit with undersized buffer: grows once, then sticks while demand stays this large
			e.s = make([]T, 0, n)
		}
		return e
	}
	//megalint:allow hotalloc pool miss: the free list is warm at steady state, misses only during ramp-up
	return &batchEnv[T]{s: make([]T, 0, n)}
}

// adoptEnv wraps a slice whose ownership the caller transfers to the
// runtime (input staging buffers) in an owned envelope: refs=1, released by
// Send after enqueueing. The envelope comes from w's list of bare adopted
// envelopes, so adopting takes no buffer from the free list the runtime
// builds in; its last consumer drops the slice.
//
//megalint:hotpath
func adoptEnv[T any](w *Worker, s []T) *batchEnv[T] {
	var e *batchEnv[T]
	if got, ok := w.poolFor(any((*adoptedEnv[T])(nil))).Get(); ok {
		e = got.(*batchEnv[T])
	} else {
		//megalint:allow hotalloc pool miss: an input's batches are consumed on its own worker (pipeline or partition), so its envelopes come back and misses stop once the batches in flight are covered
		e = &batchEnv[T]{adopted: true}
	}
	e.s = s
	e.refs.Store(1)
	return e
}

// asBatch unwraps the records of a batch traveling as `any`.
//
//megalint:hotpath
func asBatch[T any](data any) []T {
	if e, ok := data.(*batchEnv[T]); ok {
		return e.s
	}
	return data.([]T)
}

// increfAny / releaseAny apply the envelope protocol to a batch that may be
// a raw slice (no-ops there).
//
//megalint:hotpath
func increfAny(data any) {
	if r, ok := data.(batchRef); ok {
		r.incref()
	}
}

//megalint:hotpath
func releaseAny(w *Worker, data any) {
	if r, ok := data.(batchRef); ok {
		r.release(w)
	}
}
