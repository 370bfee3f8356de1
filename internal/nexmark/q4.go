package nexmark

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q4 — AVERAGE PRICE FOR A CATEGORY. Derive the stream of closed auctions
// (the winning bid of each auction at its expiry) from the bid and auction
// streams, then report the running average closing price per category. The
// closed-auction operator is keyed by auction id and accumulates relevant
// bids until the auction closes, at which point the auction is reported and
// removed — the number of live auctions, and so the state, stays bounded
// (Figure 8).

// ClosedAuction is an auction that reached its expiry, with its winning
// price.
type ClosedAuction struct {
	Auction  uint64
	Seller   uint64
	Category uint64
	Price    uint64
}

// Q4Out is the running average closing price of one category.
type Q4Out struct {
	Category uint64
	Average  uint64
}

// q4State hosts the open auctions of one key group and the bids that
// arrived before their auction within the same timestamp.
type q4State struct {
	Open    map[uint64]Auction
	Best    map[uint64]uint64
	Stashed map[uint64][]Bid
}

func newQ4State() *q4State {
	return &q4State{
		Open:    make(map[uint64]Auction),
		Best:    make(map[uint64]uint64),
		Stashed: make(map[uint64][]Bid),
	}
}

// q4Bid applies one bid to the open-auction state.
func (s *q4State) q4Bid(b Bid) {
	a, ok := s.Open[b.Auction]
	if !ok {
		s.Stashed[b.Auction] = append(s.Stashed[b.Auction], b)
		return
	}
	if b.DateTime <= a.Expires && b.Price >= a.InitialBid && b.Price > s.Best[b.Auction] {
		s.Best[b.Auction] = b.Price
	}
}

// q4Open registers a new auction and absorbs stashed bids.
func (s *q4State) q4Open(a Auction) {
	s.Open[a.ID] = a
	for _, b := range s.Stashed[a.ID] {
		s.q4Bid(b)
	}
	delete(s.Stashed, a.ID)
}

// q4Close finalizes an expired auction, returning its result if it sold.
func (s *q4State) q4Close(id uint64) (ClosedAuction, bool) {
	a, ok := s.Open[id]
	if !ok {
		return ClosedAuction{}, false
	}
	price, sold := s.Best[id], s.Best[id] > 0
	delete(s.Open, id)
	delete(s.Best, id)
	delete(s.Stashed, id)
	if !sold {
		return ClosedAuction{}, false
	}
	return ClosedAuction{Auction: a.ID, Seller: a.Seller, Category: a.Category, Price: price}, true
}

// closedAuctionsMegaphone builds the migrateable closed-auctions stage.
func closedAuctionsMegaphone(w *dataflow.Worker, name string, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[ClosedAuction] {
	bids := Bids(w, name+"-bids", events)
	auctions := Auctions(w, name+"-auctions", events)
	// BEGIN CLOSED MEGAPHONE
	return core.Binary(w,
		p.config(name),
		ctl, bids, auctions,
		func(b Bid) uint64 { return core.Mix64(b.Auction) },
		func(a Auction) uint64 { return core.Mix64(a.ID) },
		newQ4State,
		func(t Time, e core.Either[Bid, Auction], s *q4State,
			n *core.Notificator[core.Either[Bid, Auction], q4State, ClosedAuction], emit func(ClosedAuction)) {
			switch {
			case !e.IsRight:
				s.q4Bid(e.Left)
			case e.Right.Closed:
				if out, sold := s.q4Close(e.Right.ID); sold {
					emit(out)
				}
			default:
				a := e.Right
				s.q4Open(a)
				marker := Auction{ID: a.ID, Closed: true}
				n.NotifyAt(a.Expires+1, core.Right[Bid, Auction](marker))
			}
		}, nil)
	// END CLOSED MEGAPHONE
}

// closedAuctionsNative builds the native closed-auctions stage: the expiry
// index is a per-worker time wheel driven by scheduled notifications.
func closedAuctionsNative(w *dataflow.Worker, name string, events dataflow.Stream[Event]) dataflow.Stream[ClosedAuction] {
	bids := Bids(w, name+"-bids", events)
	auctions := Auctions(w, name+"-auctions", events)
	// BEGIN CLOSED NATIVE
	type wheelState struct {
		q4State
		expiring map[Time][]uint64
	}
	merged := mergeNative(w, name+"-merge", bids, auctions)
	return operators.UnaryScheduled(w, name+"-close", merged,
		dataflow.Exchange[core.Either[Bid, Auction]]{Hash: func(e core.Either[Bid, Auction]) uint64 {
			if e.IsRight {
				return core.Mix64(e.Right.ID)
			}
			return core.Mix64(e.Left.Auction)
		}},
		func() *wheelState {
			return &wheelState{q4State: *newQ4State(), expiring: make(map[Time][]uint64)}
		},
		func(t Time, data []core.Either[Bid, Auction], s *wheelState, schedule func(Time), emit func(ClosedAuction)) {
			for i := range data {
				if e := &data[i]; e.IsRight {
					a := &e.Right
					s.q4Open(*a)
					s.expiring[a.Expires+1] = append(s.expiring[a.Expires+1], a.ID)
					schedule(a.Expires + 1)
				} else {
					s.q4Bid(e.Left)
				}
			}
			for _, id := range s.expiring[t] {
				if out, sold := s.q4Close(id); sold {
					emit(out)
				}
			}
			delete(s.expiring, t)
		})
	// END CLOSED NATIVE
}

// BuildQ4 builds query 4 under the chosen implementation.
func BuildQ4(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Q4Out] {
	p.defaults()
	if p.Impl == Native {
		// BEGIN Q4 NATIVE
		closed := closedAuctionsNative(w, "q4-closed", events)
		return operators.StateMachine(w, "q4-avg", operators.Map(w, "q4-kv", closed,
			func(ca ClosedAuction) operators.KV[uint64, uint64] {
				return operators.KV[uint64, uint64]{Key: ca.Category, Val: ca.Price}
			}),
			core.Mix64,
			func(k uint64, price uint64, st *[2]uint64, emit func(Q4Out)) {
				st[0] += price
				st[1]++
				emit(Q4Out{Category: k, Average: st[0] / st[1]})
			})
		// END Q4 NATIVE
	}
	// BEGIN Q4 MEGAPHONE
	closed := closedAuctionsMegaphone(w, "q4-closed", p, ctl, events)
	pairs := operators.Map(w, "q4-kv", closed, func(ca ClosedAuction) core.KV[uint64, uint64] {
		return core.KV[uint64, uint64]{Key: ca.Category, Val: ca.Price}
	})
	return core.StateMachine(w,
		p.config("q4-avg"),
		ctl, pairs,
		core.Mix64,
		func(k uint64, price uint64, st *[2]uint64, emit func(Q4Out)) {
			st[0] += price
			st[1]++
			emit(Q4Out{Category: k, Average: st[0] / st[1]})
		}, nil)
	// END Q4 MEGAPHONE
}
