// Package envref fixtures the envref analyzer with a miniature of
// internal/dataflow's refcounted batch envelopes (PR 9): every enqueue
// increfs, every consumer releases, and the analyzer's job is to keep
// incref/release sites paired and adjacent.
package envref

import "sync/atomic"

type batchEnv struct {
	s    []int
	refs atomic.Int32
}

func (e *batchEnv) incref() { e.refs.Add(1) }
func (e *batchEnv) release() {
	if e.refs.Add(-1) == 0 {
		e.s = e.s[:0]
	}
}

type queue struct {
	local []*batchEnv
	inbox chan *batchEnv
}

// good is the protocol as written: each incref immediately precedes the
// enqueue taking the reference, and the creator's reference is dropped
// exactly once at the end.
func (q *queue) good(env *batchEnv, broadcast bool) {
	env.incref()
	q.local = append(q.local, env)
	if broadcast {
		env.incref()
		q.inbox <- env
	}
	env.release()
}

// leakedRef increfs with no adjacent enqueue: nothing will ever release
// the extra reference and the buffer never returns to the pool.
func (q *queue) leakedRef(env *batchEnv) {
	env.incref() // want "incref of env with no adjacent enqueue"
	if len(env.s) == 0 {
		return
	}
}

// recycleTwice is the PR 9 bug shape: a refactor left two release calls
// on the same path, so the envelope recycles while the enqueued consumer
// can still see it.
func (q *queue) recycleTwice(env *batchEnv) {
	env.incref()
	q.local = append(q.local, env)
	env.release()
	env.release() // want "envelope env released twice on this path"
}

// touchAfterFree touches the buffer after dropping the reference that
// kept it alive.
func (q *queue) touchAfterFree(env *batchEnv) {
	env.release()
	_ = len(env.s) // want "envelope env used after release"
}

// reassignedIsFresh shows the path-sensitivity boundary: rebinding the
// variable to a fresh envelope clears the released state.
func (q *queue) reassignedIsFresh(env *batchEnv, next *batchEnv) {
	env.release()
	env = next
	_ = len(env.s)
	_ = env
}

// The ownership edge: an operator that drains with TakeEachBatch owns each
// batch it is handed — one reference to the envelope — until it gives the
// batch up (Release, SendOwned) or hands it on.

type Batch struct {
	Recs []int
	env  *batchEnv
}

func (b Batch) Release() {
	if b.env != nil {
		b.env.release()
	}
}

func SendOwned(port int, b Batch) { b.Release() }

func TakeEachBatch(port int, f func(t int, b Batch)) {}

type stage struct{ kept []Batch }

func (s *stage) push(t int, b Batch) { s.kept = append(s.kept, b) }

// takeGood is the shape of megaphone's F: route and release what is
// routable now, keep the rest by handing it to the stage.
func takeGood(s *stage, frontier int, route func([]int)) {
	TakeEachBatch(0, func(t int, b Batch) {
		if t < frontier {
			route(b.Recs)
			b.Release()
			return
		}
		s.push(t, b)
	})
	TakeEachBatch(1, func(t int, b Batch) {
		s.kept = append(s.kept, b)
	})
	TakeEachBatch(2, func(t int, b Batch) {
		SendOwned(0, b)
	})
}

// keptAndForgotten only reads the records: the callback was handed a
// reference and drops it on the floor, so the buffer never recycles.
func keptAndForgotten(route func([]int)) {
	TakeEachBatch(0, func(t int, b Batch) {
		route(b.Recs)
	}) // want "batch b kept but never released"
}

// keptOnOnePath releases on the fast path and forgets the slow one.
func keptOnOnePath(frontier int, route func([]int)) {
	TakeEachBatch(0, func(t int, b Batch) {
		if t >= frontier {
			return // want "batch b kept but never released"
		}
		route(b.Recs)
		b.Release()
	})
}

// givenUpTwice gives the same reference up twice: the second release
// recycles a buffer whoever took it from the free list is already filling.
func givenUpTwice(s *stage) {
	for _, b := range s.kept {
		b.Release()
		b.Release() // want "envelope b released twice on this path"
	}
}

// sentThenGivenUp is the same bug through the other give-up call.
func sentThenGivenUp(b Batch) {
	SendOwned(0, b)
	b.Release() // want "envelope b released twice on this path"
}

// usedAfterGivingUp folds out of a batch it no longer owns.
func usedAfterGivingUp(b Batch, fold func(int)) {
	b.Release()
	for _, r := range b.Recs { // want "envelope b used after release"
		fold(r)
	}
}
