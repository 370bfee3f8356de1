package operators

import "megaphone/internal/dataflow"

// UnaryScheduled builds a frontier-driven stateful operator whose logic can
// request a callback at a future timestamp (timely's Notificator: a window
// boundary, an auction's expiry). Input batches are kept as they arrive,
// queued by time; once the input frontier passes a time, f runs once for
// it, with all of that time's records in arrival order (possibly none, when
// only a scheduled notification fired), the per-worker state, and a
// schedule function that requests a later run. The records are copied into
// one slice the operator reuses for every time, so f must not keep data
// after it returns.
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
	var (
		kept      dataflow.TimeQueue[dataflow.Batch[A]] // input batches whose time is incomplete
		scheduled dataflow.TimeQueue[struct{}]          // requested times, duplicates included
		data      []A                                   // the records of the time f runs on
		now       Time                                  // the time f runs on
		out       dataflow.Batch[B]                     // the batch being built for it
	)
	emit := func(r B) { out.Recs = append(out.Recs, r) }
	schedule := func(at Time) {
		if at <= now {
			panic("operators: schedule not after current time")
		}
		scheduled.Push(at, struct{}{})
	}

	b := w.NewOp(name, 1)
	dataflow.Connect(b, s, pact)
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.TakeEachBatch(c, 0, kept.Push)
		frontier := c.Frontier(0)
		for {
			now = min(kept.Head(), scheduled.Head())
			if now >= frontier {
				break
			}
			for scheduled.Head() == now {
				scheduled.Pop()
			}
			data = data[:0]
			for kept.Head() == now {
				in := kept.Pop()
				data = append(data, in.Recs...)
				in.Release(w)
			}
			out = dataflow.NewBatch[B](c, 0)
			f(now, data, state, schedule, emit)
			clear(data) // the slice is kept; the records' references are not
			dataflow.SendOwned(c, 0, now, out)
		}
		// Hold the output at the earliest incomplete time so the downstream
		// frontier cannot pass work still to do.
		if t := min(kept.Head(), scheduled.Head()); t != dataflow.None {
			c.Hold(0, t)
		} else {
			c.DropHold(0)
		}
	})
	return dataflow.Typed[B](outs[0])
}
