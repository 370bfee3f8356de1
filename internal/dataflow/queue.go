package dataflow

// TimeQueue is the engine's one time-ordered queue: what an operator keeps
// until a frontier passes its time — input batches (TakeEachBatch),
// notification requests, bins with post-dated records — popped in order of
// time and, within a time, of arrival. It is typed, so pushing and popping
// allocate nothing once its array has grown.
type TimeQueue[T any] struct {
	h   []queued[T]
	seq uint64
}

type queued[T any] struct {
	time Time
	seq  uint64 // arrival order, the tie-break within a time
	v    T
}

func queuedBefore[T any](a, b *queued[T]) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Push queues v at time t.
//
//megalint:hotpath
func (q *TimeQueue[T]) Push(t Time, v T) {
	q.seq++
	HeapPush(&q.h, queued[T]{time: t, seq: q.seq, v: v}, queuedBefore[T])
}

// Head returns the earliest queued time, or None when the queue is empty.
func (q *TimeQueue[T]) Head() Time {
	if len(q.h) == 0 {
		return None
	}
	return q.h[0].time
}

// Peek returns the item Pop would return, leaving it queued. The queue
// must not be empty.
func (q *TimeQueue[T]) Peek() T { return q.h[0].v }

// Pop removes and returns the earliest queued item (the earliest arrival
// among those of the earliest time). The queue must not be empty.
//
//megalint:hotpath
func (q *TimeQueue[T]) Pop() T {
	return HeapPop(&q.h, queuedBefore[T]).v
}

// HeapPush adds e to the binary min-heap *h ordered by less. HeapPush,
// HeapPop and HeapInit are the sift code of every heap in the tree:
// TimeQueue's, and the ones that keep another order, like a bin's pending
// post-dated records (ordered by time alone, an order their wire encoding
// preserves). They place elements exactly where container/heap's Push, Pop
// and Init would.
//
//megalint:hotpath
func HeapPush[E any](h *[]E, e E, less func(a, b *E) bool) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !less(&s[j], &s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// HeapPop removes and returns the least element of the non-empty heap *h.
//
//megalint:hotpath
func HeapPop[E any](h *[]E, less func(a, b *E) bool) E {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	siftDown(s[:n], 0, less)
	e := s[n]
	var zero E
	s[n] = zero // the slot must not pin what e refers to
	*h = s[:n]
	return e
}

// HeapInit establishes heap order over all of h.
func HeapInit[E any](h []E, less func(a, b *E) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
}

// siftDown moves h[i] down until neither child is less than it, preferring
// the left child when both are equally small.
func siftDown[E any](h []E, i int, less func(a, b *E) bool) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		j := l
		if r := l + 1; r < len(h) && less(&h[r], &h[l]) {
			j = r
		}
		if !less(&h[j], &h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
