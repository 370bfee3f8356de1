package dataflow

import (
	"sync/atomic"
	"unsafe"

	"megaphone/internal/freelist"
)

// Batch envelopes make the record buffers flowing along edges recyclable.
// A batch traveling an edge as `any` is either a raw []T (remote decode,
// direct user sends — garbage-collected as before) or a *batchEnv[T], a
// refcounted wrapper whose buffer returns to a per-worker free list when
// its last consumer is done. Envelope pointers box into `any` without
// allocating, which is what takes the exchange hot path from one
// interface-box allocation per batch hop to zero.
//
// Ownership protocol:
//   - Wrappers created on behalf of a producer (adoptEnv for input staging,
//     SendBatch's copy) start with refs=1: the creator owns them until
//     OpCtx.Send drops that reference after enqueueing.
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
//   - An operator that builds its output in an envelope (NewBatch) owns it
//     with refs=1 and hands that reference to Send.
//
// Free lists are per worker and only touched from that worker's goroutine
// (producers get from their own list, the final releaser puts to its own) or
// while the worker is parked in Pause, so they need no locking; refs is
// atomic because a broadcast envelope is released concurrently by the
// workers that consumed it. What a free list keeps is decided by
// internal/freelist's ageing rule, trimmed on the worker's scheduling count
// (see Worker.trim).
type batchEnv[T any] struct {
	s    []T
	refs atomic.Int32
}

// envPool is one worker's free list for a single envelope element type. The
// lists are segregated by type because a saturated dataflow releases
// envelopes in per-operator bursts: a single mixed stack buries one edge's
// type under hundreds of another's, and any bounded scan then misses
// constantly. typ is the typed-nil *batchEnv[T] boxed as `any` — interface
// equality on two typed nils compares just the type words, so the lookup
// needs no reflection.
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

// release drops one reference; the last one clears the buffer (pooled
// buffers must not pin record-internal pointers — migrated state payloads
// can be large) and returns the envelope to w's free list for its type.
//
//megalint:hotpath
func (e *batchEnv[T]) release(w *Worker) {
	if e.refs.Add(-1) > 0 {
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
// Send after enqueueing. The envelope's pooled buffer, if any, is dropped
// in favor of the adopted one, which enters the pool when released.
//
//megalint:hotpath
func adoptEnv[T any](w *Worker, s []T) *batchEnv[T] {
	e := getEnv[T](w, 0)
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
