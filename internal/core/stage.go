package core

import (
	"fmt"

	"megaphone/internal/dataflow"
)

// stage is the one staging structure of the megaphone data path: input
// batches an operator kept (dataflow.TakeEachBatch) because their time is
// still in advance of a frontier, in a dataflow.TimeQueue. F stages records
// whose routing is not final in one and configuration commands that are not
// final in another, S stages routed records whose time is not complete.
// Nothing is copied in: the queue holds the batches themselves, the
// operator folds or routes straight out of them and releases each when it
// is done.
type stage[T any] = dataflow.TimeQueue[dataflow.Batch[T]]

// purgeStaged is the crash barrier's view of a stage: every staged batch
// waits at a time at or above the cut (earlier times completed before the
// barrier quiesced) and is released for replay. what names the operator for
// the panic that reports a stage below the cut.
func purgeStaged[T any](q *stage[T], w *dataflow.Worker, cut Time, what string) {
	for t := q.Head(); t != None; t = q.Head() {
		if t < cut {
			panic(fmt.Sprintf("megaphone: operator %s: staged data at %v below purge cut %v (not quiesced?)", what, t, cut))
		}
		q.Pop().Release(w)
	}
}
