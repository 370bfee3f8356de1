// Package nexmark implements the NEXMark benchmark suite used by the
// paper's evaluation (Section 5.1): an auction site emitting a high-volume
// stream of persons, auctions and bids, and eight standing queries over it,
// each implemented twice — natively on timely-style operators, and on
// Megaphone's migrateable stateful operator interface.
package nexmark

import (
	"megaphone/internal/dataflow"
)

// Time aliases the runtime's logical timestamp (the epoch index).
type Time = dataflow.Time

// Kind discriminates the three event types.
type Kind uint8

// Event kinds, in generation order within each 50-event group (1 person,
// 3 auctions, 46 bids — the standard NEXMark proportions).
const (
	PersonKind Kind = iota
	AuctionKind
	BidKind
)

// Person is a new account on the auction site.
type Person struct {
	ID       uint64
	Name     string
	City     string
	State    string
	Email    string
	DateTime Time
}

// Auction is a newly listed item.
type Auction struct {
	ID         uint64
	Seller     uint64
	Category   uint64
	InitialBid uint64
	Expires    Time
	ItemName   string
	DateTime   Time
	// Closed marks the notificator's expiry marker in the closed-auctions
	// operator; generated auctions always carry false.
	Closed bool
}

// Bid is a bid on an open auction.
type Bid struct {
	Auction  uint64
	Bidder   uint64
	Price    uint64
	DateTime Time
}

// Event is one element of the input stream; exactly one payload is set
// according to Kind. A flat struct (rather than an interface) keeps batches
// contiguous.
type Event struct {
	Kind    Kind
	Person  Person
	Auction Auction
	Bid     Bid
}

// Bids projects the bid sub-stream of an event stream.
func Bids(w *dataflow.Worker, name string, events dataflow.Stream[Event]) dataflow.Stream[Bid] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, events, dataflow.Pipeline[Event]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []Event) { bidsOf(c, t, data) })
	})
	return dataflow.Typed[Bid](outs[0])
}

// bidsOf is Bids' per-batch body. Like the other two projections it reads
// each event in place — an Event is a few hundred bytes, and a by-value
// range would copy every one of them to look at its kind — and appends the
// payload into a recycled envelope.
//
//megalint:hotpath
func bidsOf(c *dataflow.OpCtx, t Time, data []Event) {
	out := dataflow.NewBatch[Bid](c, 0)
	for i := range data {
		if data[i].Kind == BidKind {
			out.Recs = append(out.Recs, data[i].Bid)
		}
	}
	dataflow.SendOwned(c, 0, t, out)
}

// Auctions projects the auction sub-stream of an event stream.
func Auctions(w *dataflow.Worker, name string, events dataflow.Stream[Event]) dataflow.Stream[Auction] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, events, dataflow.Pipeline[Event]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []Event) { auctionsOf(c, t, data) })
	})
	return dataflow.Typed[Auction](outs[0])
}

// auctionsOf is Auctions' per-batch body (see bidsOf).
//
//megalint:hotpath
func auctionsOf(c *dataflow.OpCtx, t Time, data []Event) {
	out := dataflow.NewBatch[Auction](c, 0)
	for i := range data {
		if data[i].Kind == AuctionKind {
			out.Recs = append(out.Recs, data[i].Auction)
		}
	}
	dataflow.SendOwned(c, 0, t, out)
}

// Persons projects the person sub-stream of an event stream.
func Persons(w *dataflow.Worker, name string, events dataflow.Stream[Event]) dataflow.Stream[Person] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, events, dataflow.Pipeline[Event]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []Event) { personsOf(c, t, data) })
	})
	return dataflow.Typed[Person](outs[0])
}

// personsOf is Persons' per-batch body (see bidsOf).
//
//megalint:hotpath
func personsOf(c *dataflow.OpCtx, t Time, data []Event) {
	out := dataflow.NewBatch[Person](c, 0)
	for i := range data {
		if data[i].Kind == PersonKind {
			out.Recs = append(out.Recs, data[i].Person)
		}
	}
	dataflow.SendOwned(c, 0, t, out)
}
