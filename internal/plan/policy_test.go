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
// the hysteresis band produce no plan; an idle window never triggers.
func TestLoadBalanceHysteresis(t *testing.T) {
	p := plan.LoadBalance{Hysteresis: 0.25, MinRecords: -1}
	cur := plan.Initial(4, 2)

	// Perfectly balanced: bins alternate workers, equal loads.
	if _, ok := p.Target(cur, snap(2, []uint64{100, 100, 100, 100})); ok {
		t.Error("balanced load triggered a rebalance")
	}
	// 10% imbalance, inside the 25% band.
	if _, ok := p.Target(cur, snap(2, []uint64{110, 100, 110, 100})); ok {
		t.Error("in-band imbalance triggered a rebalance")
	}
	// Idle window with the default record floor.
	floor := plan.LoadBalance{}
	if _, ok := floor.Target(cur, snap(2, []uint64{10, 0, 0, 0})); ok {
		t.Error("near-idle window triggered a rebalance")
	}
}

// TestLoadBalanceDrainsHotWorker: a worker hoarding the hot bins sheds them
// until it is inside the hysteresis band, moving as few bins as possible.
func TestLoadBalanceDrainsHotWorker(t *testing.T) {
	// 8 bins, 2 workers: worker 0 owns the even bins, which carry all load.
	load := snap(2, []uint64{400, 0, 300, 0, 200, 0, 100, 0})
	cur := plan.Initial(8, 2)
	p := plan.LoadBalance{Hysteresis: 0.25, MinRecords: -1}

	target, ok := p.Target(cur, load)
	if !ok {
		t.Fatal("skewed load did not trigger a rebalance")
	}
	if maxLoad(cur, load) != 1000 {
		t.Fatalf("test setup wrong: initial max load %d", maxLoad(cur, load))
	}
	// Mean is 500; 25% band allows 625. The greedy drain must bring worker 0
	// under that.
	if got := maxLoad(target, load); got > 625 {
		t.Errorf("post-balance max load %d, want <= 625", got)
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
	load := snap(2, []uint64{1000, 0, 0, 0})
	p := plan.LoadBalance{MinRecords: -1}
	if _, ok := p.Target(plan.Initial(4, 2), load); ok {
		t.Error("an indivisible hot bin produced a plan")
	}
}

// TestLoadBalanceMaxMoves caps the diff size.
func TestLoadBalanceMaxMoves(t *testing.T) {
	load := snap(2, []uint64{100, 0, 100, 0, 100, 0, 100, 0})
	cur := plan.Initial(8, 2)
	p := plan.LoadBalance{MinRecords: -1, MaxMoves: 1}
	target, ok := p.Target(cur, load)
	if !ok {
		t.Fatal("no plan")
	}
	if n := len(plan.Diff(cur, target)); n != 1 {
		t.Errorf("MaxMoves=1 produced %d moves", n)
	}
}
