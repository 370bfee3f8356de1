package core

import "megaphone/internal/dataflow"

// TimedRec is a post-dated record scheduled by an operator for a future
// timestamp (the paper's pending (val, time) list). Pending records are part
// of a bin's migrateable state.
type TimedRec[R any] struct {
	Time Time
	Rec  R
}

func pendingBefore[R any](a, b *TimedRec[R]) bool { return a.Time < b.Time }

// BinState is the migrateable unit: the user state of one bin plus its
// pending post-dated records, the paper's per-bin notificator queue.
// Pending is a binary min-heap ordered by Time alone, kept with the engine's
// one sift code (dataflow.HeapPush and HeapPop); records of equal time pop
// in the order the heap places them, not in arrival order. A bin's
// encoding writes Pending in heap order and its decoding keeps that order,
// so a migrated or checkpointed bin replays exactly as it would have where
// it was.
type BinState[R, S any] struct {
	State   *S
	Pending []TimedRec[R] // heap-ordered by Time
}

// PushPending schedules r at time t in the bin's pending heap. Operator
// logic schedules through the Notificator; this is exposed for tests and
// benchmarks that build bins directly.
//
//megalint:hotpath
func (b *BinState[R, S]) PushPending(t Time, r R) {
	dataflow.HeapPush(&b.Pending, TimedRec[R]{Time: t, Rec: r}, pendingBefore[R])
}

// popPendingAt removes and returns all pending records with exactly time t
// from the head of the heap, appending them to buf (pass a zero-length
// scratch slice to reuse its capacity).
//
//megalint:hotpath
func (b *BinState[R, S]) popPendingAt(t Time, buf []TimedRec[R]) []TimedRec[R] {
	for len(b.Pending) > 0 && b.Pending[0].Time == t {
		buf = append(buf, dataflow.HeapPop(&b.Pending, pendingBefore[R]))
	}
	return buf
}

func (b *BinState[R, S]) headPending() (Time, bool) {
	if len(b.Pending) == 0 {
		return 0, false
	}
	return b.Pending[0].Time, true
}

// clampPending raises every pending record scheduled before t to t,
// restoring heap order. Crash-leave restore uses it: notifications that
// came due while the bin's owner was dead cannot be delivered at their
// original times (those frontiers have passed cluster-wide), so they are
// delivered at the restore time — the earliest timestamp the runtime can
// still emit at.
func (b *BinState[R, S]) clampPending(t Time) {
	changed := false
	for i := range b.Pending {
		if b.Pending[i].Time < t {
			b.Pending[i].Time = t
			changed = true
		}
	}
	if changed {
		dataflow.HeapInit(b.Pending, pendingBefore[R])
	}
}

// binsHolder is the per-worker collection of bins, shared between the F and
// S operator instances of the same worker (they run on the same worker
// goroutine, so no locking is required — this mirrors the shared-pointer
// construction of Section 4.2).
type binsHolder[R, S any] struct {
	logBins int
	data    []*BinState[R, S] // indexed by bin; nil when absent or not owned
}

func newBinsHolder[R, S any](logBins int) *binsHolder[R, S] {
	return &binsHolder[R, S]{logBins: logBins, data: make([]*BinState[R, S], 1<<uint(logBins))}
}

// take removes and returns the bin's state, or nil if the bin is empty.
func (b *binsHolder[R, S]) take(bin int) *BinState[R, S] {
	s := b.data[bin]
	b.data[bin] = nil
	return s
}

// install places migrated state into the bin, replacing any placeholder.
func (b *binsHolder[R, S]) install(bin int, s *BinState[R, S]) { b.data[bin] = s }

// getOrCreate returns the bin's state, allocating an empty one on first use.
func (b *binsHolder[R, S]) getOrCreate(bin int, newState func() *S) *BinState[R, S] {
	s := b.data[bin]
	if s == nil {
		s = &BinState[R, S]{State: newState()}
		b.data[bin] = s
	}
	return s
}
