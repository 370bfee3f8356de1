package core

import (
	"fmt"

	"megaphone/internal/dataflow"
)

// deferred is the one staging structure of the megaphone data path: input
// batches an operator kept (dataflow.TakeEachBatch) because their time is
// still in advance of a frontier, ordered by time and, within a time, by
// arrival. F stages records whose routing is not final in one, S stages
// routed records whose time is not complete. Nothing is copied in or out:
// the heap holds the batches themselves, the operator folds or routes
// straight out of them and releases each when it is done.
//
// The heap is typed (container/heap would box every entry on the way in and
// out), so staging and draining allocate nothing once its array has grown.
type deferred[T any] struct {
	h   []stagedBatch[T]
	seq uint64
}

type stagedBatch[T any] struct {
	time Time
	seq  uint64 // arrival order, the tie-break within a time
	b    dataflow.Batch[T]
}

func (d *deferred[T]) less(i, j int) bool {
	if d.h[i].time != d.h[j].time {
		return d.h[i].time < d.h[j].time
	}
	return d.h[i].seq < d.h[j].seq
}

// push stages b at time t.
//
//megalint:hotpath
func (d *deferred[T]) push(t Time, b dataflow.Batch[T]) {
	d.seq++
	d.h = append(d.h, stagedBatch[T]{time: t, seq: d.seq, b: b})
	for i := len(d.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !d.less(i, parent) {
			break
		}
		d.h[i], d.h[parent] = d.h[parent], d.h[i]
		i = parent
	}
}

// head returns the earliest staged time, or None when nothing is staged.
func (d *deferred[T]) head() Time {
	if len(d.h) == 0 {
		return None
	}
	return d.h[0].time
}

// pop removes and returns the earliest staged batch (the earliest arrival
// among those of the earliest time); the caller owns it.
//
//megalint:hotpath
func (d *deferred[T]) pop() dataflow.Batch[T] {
	b := d.h[0].b
	last := len(d.h) - 1
	d.h[0] = d.h[last]
	d.h[last] = stagedBatch[T]{}
	d.h = d.h[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && d.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < last && d.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		d.h[i], d.h[least] = d.h[least], d.h[i]
		i = least
	}
	return b
}

// purge is the crash barrier's view of the stage: every staged batch waits
// at a time at or above the cut (earlier times completed before the barrier
// quiesced) and is released for replay. what names the operator for the
// panic that reports a stage below the cut.
func (d *deferred[T]) purge(w *dataflow.Worker, cut Time, what string) {
	for i := range d.h {
		if d.h[i].time < cut {
			panic(fmt.Sprintf("megaphone: operator %s: staged data at %v below purge cut %v (not quiesced?)", what, d.h[i].time, cut))
		}
		d.h[i].b.Release(w)
		d.h[i] = stagedBatch[T]{}
	}
	d.h = d.h[:0]
}
