package operators

import (
	"container/heap"

	"megaphone/internal/dataflow"
)

// UnaryScheduled is UnaryNotify plus timely's Notificator: the logic can
// request a callback at a future timestamp (e.g. a window boundary or an
// auction's expiry). f runs once per completed time, with that time's data
// (possibly empty, when only a scheduled notification fired) and a schedule
// function valid during the call.
//
// This is the native building block for windowed NEXMark queries; unlike
// Megaphone's notificator, the scheduled times and the state they refer to
// are invisible to the system and cannot migrate.
func UnaryScheduled[A, B, S any](
	w *dataflow.Worker,
	name string,
	s dataflow.Stream[A],
	pact dataflow.Pact[A],
	newState func() S,
	f func(t Time, data []A, state S, schedule func(Time), emit func(B)),
) dataflow.Stream[B] {
	state := newState()
	pending := make(map[Time][]A)
	var times timeHeap          // times with pending data
	var scheduled timeHeap      // requested notification times
	schedSet := map[Time]bool{} // dedup for scheduled
	var out dataflow.Batch[B]   // the batch being built for the time f runs on
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
		for {
			t := dataflow.None
			if len(times) > 0 {
				t = times[0]
			}
			if len(scheduled) > 0 && scheduled[0] < t {
				t = scheduled[0]
			}
			if t >= frontier {
				break
			}
			if len(times) > 0 && times[0] == t {
				heap.Pop(&times)
			}
			if len(scheduled) > 0 && scheduled[0] == t {
				heap.Pop(&scheduled)
				delete(schedSet, t)
			}
			data := pending[t]
			delete(pending, t)
			sched := func(at Time) {
				if at <= t {
					panic("operators: schedule not after current time")
				}
				if !schedSet[at] {
					schedSet[at] = true
					heap.Push(&scheduled, at)
				}
			}
			out = dataflow.NewBatch[B](c, 0)
			f(t, data, state, sched, emit)
			dataflow.SendOwned(c, 0, t, out)
		}
		holdAt := dataflow.None
		if len(times) > 0 {
			holdAt = times[0]
		}
		if len(scheduled) > 0 && scheduled[0] < holdAt {
			holdAt = scheduled[0]
		}
		if holdAt != dataflow.None {
			c.Hold(0, holdAt)
		} else {
			c.DropHold(0)
		}
	})
	return dataflow.Typed[B](outs[0])
}
