package nexmark

import (
	"fmt"

	"megaphone/internal/core"
)

// GenConfig parameterizes the event generator. The defaults model the
// reference generator's intrinsic properties at laptop scale: the number of
// active auctions is fixed regardless of rate, categories are uniform, and
// sellers and bidders are drawn from the live population with a hot-key
// skew.
type GenConfig struct {
	// ActiveAuctions bounds the set of auctions bids are drawn from.
	//
	//megalint:allow unreached test support: TestShippedGraphsCrossInBinary and TestClusterNexmarkQ4Equivalence shrink the population so short runs join
	ActiveAuctions uint64
	// ActivePeople bounds the set of recently created people referenced by
	// bids and auctions.
	//
	//megalint:allow unreached test support: TestShippedGraphsCrossInBinary and TestClusterNexmarkQ4Equivalence shrink the population so short runs join
	ActivePeople uint64
	// AuctionEpochs is how many epochs an auction stays open (time
	// dilation is applied by scaling this, as the paper does for Q5/Q8).
	//
	//megalint:allow unreached test support: TestShippedGraphsCrossInBinary and TestClusterNexmarkQ4Equivalence close auctions inside short runs
	AuctionEpochs Time
	// HotRatio is the proportion (1/HotRatio of draws) of bids that go to
	// the hottest auction, modelling skew; 0 disables.
	HotRatio uint64
	// HotShiftEvery moves the hot auction every HotShiftEvery epochs: the
	// hot draws go to a pseudorandom live auction that jumps each period
	// instead of the newest one, so the hot bins wander the way an adaptive
	// controller must chase. 0 keeps the hot auction pinned to the newest.
	HotShiftEvery Time
}

func (c *GenConfig) defaults() {
	if c.ActiveAuctions == 0 {
		c.ActiveAuctions = 1000
	}
	if c.ActivePeople == 0 {
		c.ActivePeople = 1000
	}
	if c.AuctionEpochs == 0 {
		c.AuctionEpochs = 100
	}
}

// personProportion et al. are the standard NEXMark event proportions: out of
// every 50 events, 1 is a person, 3 are auctions and 46 are bids.
const (
	groupSize         = 50
	personProportion  = 1
	auctionProportion = 3

	// categories is the number of auction categories.
	categories = 16
)

var usStates = []string{"OR", "ID", "CA", "WA", "AZ", "NV", "MT", "UT"}
var usCities = []string{"Portland", "Boise", "Palo Alto", "Seattle", "Phoenix", "Reno", "Helena", "Provo"}

// Gen deterministically produces the n-th event of the stream at a given
// epoch: the same (n, epoch) always yields the same event, so all workers
// can generate disjoint partitions of one global stream without
// coordination.
type Gen struct {
	cfg GenConfig
}

// NewGen returns a generator with defaults applied.
func NewGen(cfg GenConfig) *Gen {
	cfg.defaults()
	return &Gen{cfg: cfg}
}

// At returns event number n with event-time epoch.
func (g *Gen) At(n uint64, epoch Time) Event {
	group := n / groupSize
	rem := n % groupSize
	rng := core.Mix64(n*0x9e3779b97f4a7c15 + 1)

	switch {
	case rem < personProportion:
		id := group // one person per group
		return Event{Kind: PersonKind, Person: Person{
			ID:       id,
			Name:     fmt.Sprintf("person-%d", id),
			City:     usCities[rng%uint64(len(usCities))],
			State:    usStates[(rng>>8)%uint64(len(usStates))],
			Email:    fmt.Sprintf("p%d@example.com", id),
			DateTime: epoch,
		}}
	case rem < personProportion+auctionProportion:
		seq := group*auctionProportion + (rem - personProportion)
		seller := g.recentPerson(group, rng)
		return Event{Kind: AuctionKind, Auction: Auction{
			ID:         seq,
			Seller:     seller,
			Category:   rng >> 16 % categories,
			InitialBid: 100 + rng%900,
			Expires:    epoch + g.cfg.AuctionEpochs,
			ItemName:   fmt.Sprintf("item-%d", seq),
			DateTime:   epoch,
		}}
	default:
		return Event{Kind: BidKind, Bid: Bid{
			Auction:  g.recentAuction(group, rng, epoch),
			Bidder:   g.recentPerson(group, rng>>13),
			Price:    100 + (rng>>24)%10000,
			DateTime: epoch,
		}}
	}
}

// recentAuction picks an auction id among the most recent ActiveAuctions
// listings, optionally skewed to the newest one (or, with HotShiftEvery, to
// a per-period pseudorandom one).
func (g *Gen) recentAuction(group, rng uint64, epoch Time) uint64 {
	maxSeq := group*auctionProportion + auctionProportion - 1
	if g.cfg.HotRatio > 0 && rng%g.cfg.HotRatio == 0 {
		if g.cfg.HotShiftEvery > 0 {
			phase := uint64(epoch/g.cfg.HotShiftEvery) + 1
			span := g.cfg.ActiveAuctions
			if maxSeq+1 < span {
				span = maxSeq + 1
			}
			return maxSeq - core.Mix64(phase*0x9e3779b97f4a7c15)%span
		}
		return maxSeq
	}
	span := g.cfg.ActiveAuctions
	if maxSeq+1 < span {
		span = maxSeq + 1
	}
	return maxSeq - (rng>>7)%span
}

// recentPerson picks a person id among the most recent ActivePeople
// accounts.
func (g *Gen) recentPerson(group, rng uint64) uint64 {
	maxID := group // persons created one per group
	span := g.cfg.ActivePeople
	if maxID+1 < span {
		span = maxID + 1
	}
	return maxID - (rng>>3)%span
}

// Batch produces n consecutive events for worker w at the given epoch,
// drawing from the worker's residue class of the global sequence so workers
// jointly generate one interleaved stream. perEpoch is the global number of
// events per epoch and peers the number of workers.
func (g *Gen) Batch(w, peers int, epoch Time, perEpoch, n int) []Event {
	base := uint64(epoch) * uint64(perEpoch)
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		idx := base + uint64(i*peers+w)
		out = append(out, g.At(idx, epoch))
	}
	return out
}
