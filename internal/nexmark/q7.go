package nexmark

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q7 — HIGHEST BID. Report the highest bid of each tumbling window. State
// is a single value per window, but the query requires a data exchange to
// combine worker-local pre-aggregations into the global maximum; because
// state is so small, migration strategies are indistinguishable (Figure 11).

// Q7Out is one window's highest bid.
type Q7Out struct {
	Window Time
	Price  uint64
	Bidder uint64
}

// q7State maps open windows to their highest bid so far.
type q7State struct {
	Windows map[Time]Q7Out
}

func newQ7State() *q7State { return &q7State{Windows: make(map[Time]Q7Out)} }

// q7Pre pre-aggregates the per-worker maximum of each window — this is the
// hand-tuned optimization the paper's native implementations include.
func q7Pre(w *dataflow.Worker, windowEpochs Time, bids dataflow.Stream[Bid]) dataflow.Stream[Q7Out] {
	return operators.UnaryScheduled(w, "q7-pre", bids,
		dataflow.Pipeline[Bid]{},
		func() map[Time]Q7Out { return make(map[Time]Q7Out) },
		func(t Time, data []Bid, s map[Time]Q7Out, schedule func(Time), emit func(Q7Out)) {
			for i := range data {
				b := &data[i]
				win := b.DateTime / windowEpochs * windowEpochs
				if cur := s[win]; b.Price > cur.Price {
					s[win] = Q7Out{Window: win, Price: b.Price, Bidder: b.Bidder}
					schedule(win + windowEpochs)
				}
			}
			for win, best := range s {
				if win+windowEpochs <= t {
					emit(best)
					delete(s, win)
				}
			}
		})
}

// BuildQ7 builds query 7 under the chosen implementation.
func BuildQ7(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Q7Out] {
	p.defaults()
	bids := Bids(w, "q7-bids", events)
	pre := q7Pre(w, p.WindowEpochs, bids)
	if p.Impl == Native {
		// BEGIN Q7 NATIVE
		return operators.UnaryScheduled(w, "q7-max", pre,
			dataflow.Exchange[Q7Out]{Hash: func(o Q7Out) uint64 { return core.Mix64(uint64(o.Window)) }},
			func() map[Time]Q7Out { return make(map[Time]Q7Out) },
			func(t Time, data []Q7Out, s map[Time]Q7Out, schedule func(Time), emit func(Q7Out)) {
				for i := range data {
					if o := &data[i]; o.Price > s[o.Window].Price {
						s[o.Window] = *o
						schedule(t + 1)
					}
				}
				for win, best := range s {
					if win < t {
						emit(best)
						delete(s, win)
					}
				}
			})
		// END Q7 NATIVE
	}
	// BEGIN Q7 MEGAPHONE
	return core.Unary(w,
		p.config("q7-max"),
		ctl, pre,
		func(o Q7Out) uint64 { return core.Mix64(uint64(o.Window)) },
		newQ7State,
		func(t Time, o Q7Out, s *q7State, n *core.Notificator[Q7Out, q7State, Q7Out], emit func(Q7Out)) {
			if o.Price == 0 && o.Bidder == 0 {
				// Window-close marker.
				if best, ok := s.Windows[o.Window]; ok {
					emit(best)
					delete(s.Windows, o.Window)
				}
				return
			}
			if _, seen := s.Windows[o.Window]; !seen {
				n.NotifyAt(t+1, Q7Out{Window: o.Window})
			}
			if cur := s.Windows[o.Window]; o.Price > cur.Price {
				s.Windows[o.Window] = o
			}
		}, nil)
	// END Q7 MEGAPHONE
}
