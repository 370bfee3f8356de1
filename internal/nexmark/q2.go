package nexmark

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q2 — SELECTION. Keep bids whose auction id matches a modulus. Stateless
// (Figure 6).

// q2AuctionMod is Q2's filter modulus.
const q2AuctionMod = 13

// Q2Out is a matching (auction, price) pair.
type Q2Out struct {
	Auction uint64
	Price   uint64
}

// BuildQ2 builds query 2 under the chosen implementation.
func BuildQ2(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Q2Out] {
	p.defaults()
	bids := Bids(w, "q2-bids", events)
	if p.Impl == Native {
		// BEGIN Q2 NATIVE
		matching := operators.Filter(w, "q2-filter", bids, func(b Bid) bool {
			return b.Auction%q2AuctionMod == 0
		})
		return operators.Map(w, "q2-project", matching, func(b Bid) Q2Out {
			return Q2Out{Auction: b.Auction, Price: b.Price}
		})
		// END Q2 NATIVE
	}
	// BEGIN Q2 MEGAPHONE
	return core.Unary(w,
		p.config("q2"),
		ctl, bids,
		func(b Bid) uint64 { return core.Mix64(b.Auction) },
		func() *noState { return &noState{} },
		func(t Time, b Bid, _ *noState, _ *core.Notificator[Bid, noState, Q2Out], emit func(Q2Out)) {
			if b.Auction%q2AuctionMod == 0 {
				emit(Q2Out{Auction: b.Auction, Price: b.Price})
			}
		}, nil)
	// END Q2 MEGAPHONE
}
