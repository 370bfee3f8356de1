package nexmark_test

import (
	"testing"
	"time"

	"megaphone/internal/harness"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

// TestGeneratorProportions checks the 1:3:46 event mix and determinism.
func TestGeneratorProportions(t *testing.T) {
	g := nexmark.NewGen(nexmark.GenConfig{})
	var persons, auctions, bids int
	for n := uint64(0); n < 50_000; n++ {
		e := g.At(n, 1)
		switch e.Kind {
		case nexmark.PersonKind:
			persons++
		case nexmark.AuctionKind:
			auctions++
		case nexmark.BidKind:
			bids++
		}
	}
	if persons != 1000 || auctions != 3000 || bids != 46000 {
		t.Fatalf("proportions: persons=%d auctions=%d bids=%d", persons, auctions, bids)
	}
	// Determinism.
	for n := uint64(0); n < 100; n++ {
		if g.At(n, 7) != g.At(n, 7) {
			t.Fatalf("generator not deterministic at %d", n)
		}
	}
}

// TestGeneratorReferentialIntegrity checks bids reference existing auctions
// and auctions reference existing persons.
func TestGeneratorReferentialIntegrity(t *testing.T) {
	g := nexmark.NewGen(nexmark.GenConfig{})
	maxPerson := uint64(0)
	maxAuction := uint64(0)
	seenPerson := false
	for n := uint64(0); n < 20_000; n++ {
		e := g.At(n, 1)
		switch e.Kind {
		case nexmark.PersonKind:
			seenPerson = true
			if e.Person.ID > maxPerson {
				maxPerson = e.Person.ID
			}
		case nexmark.AuctionKind:
			if !seenPerson {
				t.Fatal("auction before any person")
			}
			if e.Auction.Seller > maxPerson {
				t.Fatalf("auction %d references future seller %d > %d", e.Auction.ID, e.Auction.Seller, maxPerson)
			}
			if e.Auction.ID > maxAuction {
				maxAuction = e.Auction.ID
			}
		case nexmark.BidKind:
			if e.Bid.Auction > maxAuction {
				t.Fatalf("bid references future auction %d > %d", e.Bid.Auction, maxAuction)
			}
			if e.Bid.Bidder > maxPerson {
				t.Fatalf("bid references future bidder %d > %d", e.Bid.Bidder, maxPerson)
			}
		}
	}
}

// runShort runs a query briefly under both implementations with a batched
// migration for the megaphone variant, requiring completion and output.
func runShort(t *testing.T, q string) {
	t.Helper()
	for _, impl := range []nexmark.Impl{nexmark.Native, nexmark.Megaphone} {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			t.Parallel()
			cfg := nexmark.RunConfig{
				Query: q,
				Params: nexmark.Params{
					Impl:         impl,
					LogBins:      4,
					WindowEpochs: 40,
				},
				Gen: nexmark.GenConfig{ActiveAuctions: 100, ActivePeople: 100, AuctionEpochs: 30},
				Config: harness.Config{
					Workers:  2,
					Rate:     20_000,
					Duration: 700 * time.Millisecond,
				},
			}
			if impl == nexmark.Megaphone {
				cfg.Strategy = plan.Batched
				cfg.Batch = 4
				cfg.MigrateAt = 250 * time.Millisecond
			}
			res, err := nexmark.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Records == 0 {
				t.Fatal("no records")
			}
			if res.Hist.Count() == 0 {
				t.Fatal("no latency measurements")
			}
			if impl == nexmark.Megaphone && len(res.MigrationSpans) == 0 {
				t.Error("no migration observed")
			}
		})
	}
}

func TestQ1(t *testing.T) { runShort(t, "q1") }
func TestQ2(t *testing.T) { runShort(t, "q2") }
func TestQ3(t *testing.T) { runShort(t, "q3") }
func TestQ4(t *testing.T) { runShort(t, "q4") }
func TestQ5(t *testing.T) { runShort(t, "q5") }
func TestQ6(t *testing.T) { runShort(t, "q6") }
func TestQ7(t *testing.T) { runShort(t, "q7") }
func TestQ8(t *testing.T) { runShort(t, "q8") }
