package plan_test

import (
	"reflect"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/plan"
)

// snap builds a LoadSnapshot over the given per-bin record counts for a
// worker count.
func snap(workers int, binRecs []uint64) *core.LoadSnapshot {
	return &core.LoadSnapshot{Workers: workers, Bins: len(binRecs), BinRecs: binRecs}
}

func maxLoad(a plan.Assignment, load *core.LoadSnapshot) uint64 {
	loads := load.RecsUnder(a, nil)
	m := loads[0]
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}

// TestLoadBalanceHysteresis: balanced and mildly imbalanced loads inside
// the hysteresis band produce no plan; a window below the record floor
// never triggers.
func TestLoadBalanceHysteresis(t *testing.T) {
	p := plan.LoadBalance{Hysteresis: 0.25}
	cur := plan.Initial(4, 2)

	// Perfectly balanced: bins alternate workers, equal loads.
	if _, ok := p.Target(cur, snap(2, []uint64{1000, 1000, 1000, 1000})); ok {
		t.Error("balanced load triggered a rebalance")
	}
	// 10% imbalance, inside the 25% band.
	if _, ok := p.Target(cur, snap(2, []uint64{1100, 1000, 1100, 1000})); ok {
		t.Error("in-band imbalance triggered a rebalance")
	}
	// Near-idle window: the skew would trigger, the record floor holds it.
	if _, ok := p.Target(cur, snap(2, []uint64{plan.DefaultMinRecords - 1, 0, 0, 0})); ok {
		t.Error("near-idle window triggered a rebalance")
	}
	if _, ok := p.Target(cur, snap(2, []uint64{plan.DefaultMinRecords, 0, 1, 0})); !ok {
		t.Error("skewed window at the record floor did not trigger")
	}
}

// TestLoadBalanceDrainsHotWorker: a worker hoarding the hot bins sheds them
// until it is inside the hysteresis band, moving as few bins as possible.
func TestLoadBalanceDrainsHotWorker(t *testing.T) {
	// 8 bins, 2 workers: worker 0 owns the even bins, which carry all load.
	load := snap(2, []uint64{4000, 0, 3000, 0, 2000, 0, 1000, 0})
	cur := plan.Initial(8, 2)
	p := plan.LoadBalance{Hysteresis: 0.25}

	target, ok := p.Target(cur, load)
	if !ok {
		t.Fatal("skewed load did not trigger a rebalance")
	}
	if maxLoad(cur, load) != 10000 {
		t.Fatalf("test setup wrong: initial max load %d", maxLoad(cur, load))
	}
	// Mean is 5000; 25% band allows 6250. The greedy drain must bring
	// worker 0 under that.
	if got := maxLoad(target, load); got > 6250 {
		t.Errorf("post-balance max load %d, want <= 6250", got)
	}
	// Zero-load bins never move.
	for b, w := range target {
		if load.BinRecs[b] == 0 && w != cur[b] {
			t.Errorf("zero-load bin %d moved", b)
		}
	}
	// Deterministic: same inputs, same answer.
	again, _ := p.Target(cur, load)
	if !reflect.DeepEqual(target, again) {
		t.Error("policy is not deterministic")
	}
}

// TestLoadBalanceIndivisibleBin: when one bin carries all the load, no move
// can help and the policy declines rather than thrashing.
func TestLoadBalanceIndivisibleBin(t *testing.T) {
	load := snap(2, []uint64{10000, 0, 0, 0})
	p := plan.LoadBalance{}
	if _, ok := p.Target(plan.Initial(4, 2), load); ok {
		t.Error("an indivisible hot bin produced a plan")
	}
}

// TestLoadBalanceMaxMoves caps the diff size.
func TestLoadBalanceMaxMoves(t *testing.T) {
	load := snap(2, []uint64{1000, 0, 1000, 0, 1000, 0, 1000, 0})
	cur := plan.Initial(8, 2)
	p := plan.WithMaxMoves(plan.LoadBalance{}, 1)
	target, ok := p.Target(cur, load)
	if !ok {
		t.Fatal("no plan")
	}
	if n := len(plan.Diff(cur, target)); n != 1 {
		t.Errorf("maxMoves=1 produced %d moves", n)
	}
}
