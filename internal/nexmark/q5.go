package nexmark

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q5 — HOT ITEMS. Report, at every slide boundary, the auction with the
// highest number of bids over the preceding window. Each auction maintains
// up to window/slide per-slide counts so totals can be reported and
// retracted as time advances; the paper dilates time so the sixty-minute
// window fits the run (Figure 9).

// q5SlideEpochs is Q5's slide.
const q5SlideEpochs Time = 10

// Q5Count is one auction's bid count over the window ending at Window.
type Q5Count struct {
	Window  Time
	Auction uint64
	Count   uint64
}

// Q5Out is the hottest auction of one window.
type Q5Out struct {
	Window  Time
	Auction uint64
	Count   uint64
}

// q5State is the per-auction sliding-window state: bid counts per slide.
type q5State struct {
	Slides     map[Time]uint64 // slide start -> count
	LastReport Time            // dedups slide markers
}

func newQ5State() *q5State { return &q5State{Slides: make(map[Time]uint64)} }

// windowTotal sums the slides in (end-window, end] and prunes older ones.
func (s *q5State) windowTotal(end, window Time) uint64 {
	var total uint64
	for start, c := range s.Slides {
		if start+window <= end {
			delete(s.Slides, start)
			continue
		}
		if start < end {
			total += c
		}
	}
	return total
}

// q5CounterMegaphone emits per-auction window counts at slide boundaries.
func q5CounterMegaphone(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], bids dataflow.Stream[Bid]) dataflow.Stream[Q5Count] {
	slide, window := q5SlideEpochs, p.WindowEpochs
	// BEGIN Q5 MEGAPHONE COUNTER
	return core.Unary(w,
		p.config("q5-count"),
		ctl, bids,
		func(b Bid) uint64 { return core.Mix64(b.Auction) },
		newQ5State,
		func(t Time, b Bid, s *q5State, n *core.Notificator[Bid, q5State, Q5Count], emit func(Q5Count)) {
			if b.DateTime == 0 && b.Bidder == 0 && b.Price == 0 {
				// Slide marker: report the window ending at this boundary.
				// Markers may arrive more than once per slide; dedup.
				if t <= s.LastReport {
					return
				}
				s.LastReport = t
				if total := s.windowTotal(t, window); total > 0 {
					emit(Q5Count{Window: t, Auction: b.Auction, Count: total})
					// Keep reporting while the window stays non-empty.
					n.NotifyAt(t+slide, Bid{Auction: b.Auction})
				}
				return
			}
			start := b.DateTime / slide * slide
			if s.Slides[start] == 0 {
				n.NotifyAt(start+slide, Bid{Auction: b.Auction})
			}
			s.Slides[start]++
		}, nil)
	// END Q5 MEGAPHONE COUNTER
}

// q5Best is the current leader of one open window.
type q5Best struct {
	Auction uint64
	Count   uint64
}

// q5WinnerState maps open windows to their current leading auction.
type q5WinnerState struct {
	Best map[Time]q5Best
}

func newQ5WinnerState() *q5WinnerState { return &q5WinnerState{Best: make(map[Time]q5Best)} }

// q5Winner reduces per-auction counts to the hottest auction per window.
func q5WinnerMegaphone(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], counts dataflow.Stream[Q5Count]) dataflow.Stream[Q5Out] {
	// BEGIN Q5 MEGAPHONE WINNER
	return core.Unary(w,
		p.config("q5-winner"),
		ctl, counts,
		func(c Q5Count) uint64 { return core.Mix64(uint64(c.Window)) },
		newQ5WinnerState,
		func(t Time, c Q5Count, s *q5WinnerState, n *core.Notificator[Q5Count, q5WinnerState, Q5Out], emit func(Q5Out)) {
			if c.Auction == 0 && c.Count == 0 {
				// Window-close marker.
				if b, ok := s.Best[c.Window]; ok {
					emit(Q5Out{Window: c.Window, Auction: b.Auction, Count: b.Count})
					delete(s.Best, c.Window)
				}
				return
			}
			b, seen := s.Best[c.Window]
			if !seen {
				n.NotifyAt(c.Window+1, Q5Count{Window: c.Window})
			}
			if c.Count > b.Count {
				b = q5Best{Auction: c.Auction, Count: c.Count}
			}
			s.Best[c.Window] = b
		}, nil)
	// END Q5 MEGAPHONE WINNER
}

// BuildQ5 builds query 5 under the chosen implementation.
func BuildQ5(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Q5Out] {
	p.defaults()
	bids := Bids(w, "q5-bids", events)
	if p.Impl == Native {
		slide, window := q5SlideEpochs, p.WindowEpochs
		// BEGIN Q5 NATIVE
		counts := operators.UnaryScheduled(w, "q5-count", bids,
			dataflow.Exchange[Bid]{Hash: func(b Bid) uint64 { return core.Mix64(b.Auction) }},
			func() map[uint64]*q5State { return make(map[uint64]*q5State) },
			func(t Time, data []Bid, s map[uint64]*q5State, schedule func(Time), emit func(Q5Count)) {
				for i := range data {
					b := &data[i]
					st, ok := s[b.Auction]
					if !ok {
						st = newQ5State()
						s[b.Auction] = st
					}
					start := b.DateTime / slide * slide
					st.Slides[start]++
					schedule(start + slide)
				}
				if t%slide == 0 {
					for auction, st := range s {
						if total := st.windowTotal(t, window); total > 0 {
							emit(Q5Count{Window: t, Auction: auction, Count: total})
							schedule(t + slide)
						} else if len(st.Slides) == 0 {
							delete(s, auction)
						}
					}
				}
			})
		type best struct {
			Auction uint64
			Count   uint64
		}
		return operators.UnaryScheduled(w, "q5-winner", counts,
			dataflow.Exchange[Q5Count]{Hash: func(c Q5Count) uint64 { return core.Mix64(uint64(c.Window)) }},
			func() map[Time]best { return make(map[Time]best) },
			func(t Time, data []Q5Count, s map[Time]best, schedule func(Time), emit func(Q5Out)) {
				for i := range data {
					c := &data[i]
					if b := s[c.Window]; c.Count > b.Count {
						s[c.Window] = best{Auction: c.Auction, Count: c.Count}
						schedule(c.Window + 1)
					}
				}
				for window, b := range s {
					if window < t {
						emit(Q5Out{Window: window, Auction: b.Auction, Count: b.Count})
						delete(s, window)
					}
				}
			})
		// END Q5 NATIVE
	}
	counts := q5CounterMegaphone(w, p, ctl, bids)
	return q5WinnerMegaphone(w, p, ctl, counts)
}
