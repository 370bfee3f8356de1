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
		dataflow.ForEachBatch(c, 0, func(t Time, data []Event) {
			var out []Bid
			for _, e := range data {
				if e.Kind == BidKind {
					out = append(out, e.Bid)
				}
			}
			dataflow.SendBatch(c, 0, t, out)
		})
	})
	return dataflow.Typed[Bid](outs[0])
}

// Auctions projects the auction sub-stream of an event stream.
func Auctions(w *dataflow.Worker, name string, events dataflow.Stream[Event]) dataflow.Stream[Auction] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, events, dataflow.Pipeline[Event]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []Event) {
			var out []Auction
			for _, e := range data {
				if e.Kind == AuctionKind {
					out = append(out, e.Auction)
				}
			}
			dataflow.SendBatch(c, 0, t, out)
		})
	})
	return dataflow.Typed[Auction](outs[0])
}

// Persons projects the person sub-stream of an event stream.
func Persons(w *dataflow.Worker, name string, events dataflow.Stream[Event]) dataflow.Stream[Person] {
	b := w.NewOp(name, 1)
	dataflow.Connect(b, events, dataflow.Pipeline[Event]{})
	outs := b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t Time, data []Event) {
			var out []Person
			for _, e := range data {
				if e.Kind == PersonKind {
					out = append(out, e.Person)
				}
			}
			dataflow.SendBatch(c, 0, t, out)
		})
	})
	return dataflow.Typed[Person](outs[0])
}
