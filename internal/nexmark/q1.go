package nexmark

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q1 — CURRENCY CONVERSION. Transform each bid's price from dollars into a
// different currency. Stateless: migration moves no state (Figure 5).

// BuildQ1 builds query 1 under the chosen implementation.
func BuildQ1(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Bid] {
	p.defaults()
	bids := Bids(w, "q1-bids", events)
	if p.Impl == Native {
		// BEGIN Q1 NATIVE
		return operators.Map(w, "q1-convert", bids, func(b Bid) Bid {
			b.Price = b.Price * 89 / 100
			return b
		})
		// END Q1 NATIVE
	}
	// BEGIN Q1 MEGAPHONE
	return core.Unary(w,
		p.config("q1"),
		ctl, bids,
		func(b Bid) uint64 { return core.Mix64(b.Auction) },
		func() *noState { return &noState{} },
		func(t Time, b Bid, _ *noState, _ *core.Notificator[Bid, noState, Bid], emit func(Bid)) {
			b.Price = b.Price * 89 / 100
			emit(b)
		}, nil)
	// END Q1 MEGAPHONE
}
