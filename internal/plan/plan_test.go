package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"megaphone/internal/core"
)

// TestDiffRoundTrip: applying Diff(from, to) to from yields to.
func TestDiffRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bins := 1 << (2 + rng.Intn(6))
		peers := 1 + rng.Intn(8)
		from := Initial(bins, peers)
		to := make(Assignment, bins)
		for b := range to {
			to[b] = rng.Intn(peers)
		}
		got := append(Assignment(nil), from...)
		for _, m := range Diff(from, to) {
			got[m.Bin] = m.Worker
		}
		for b := range to {
			if got[b] != to[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStrategiesCoverAllMoves: every strategy's plan contains exactly the
// diff's moves, partitioned into steps.
func TestStrategiesCoverAllMoves(t *testing.T) {
	from := Initial(64, 4)
	to := Rebalance(64, []int{0, 1})
	want := Diff(from, to)
	for _, s := range []Strategy{AllAtOnce, Fluid, Batched, Optimized} {
		p := Build(s, from, to, 8)
		if got := p.NumMoves(); got != len(want) {
			t.Errorf("%v: %d moves, want %d", s, got, len(want))
		}
		seen := make(map[int]int)
		for _, st := range p.Steps {
			for _, m := range st.Moves {
				seen[m.Bin] = m.Worker
			}
		}
		for _, m := range want {
			if seen[m.Bin] != m.Worker {
				t.Errorf("%v: move for bin %d missing or wrong", s, m.Bin)
			}
		}
	}
}

// TestStepShapes: all-at-once is one step; fluid is one move per step;
// batched respects the batch size.
func TestStepShapes(t *testing.T) {
	from := Initial(64, 4)
	to := Rebalance(64, []int{0, 1})
	n := len(Diff(from, to))

	if p := Build(AllAtOnce, from, to, 0); len(p.Steps) != 1 || len(p.Steps[0].Moves) != n {
		t.Errorf("all-at-once steps = %d", len(p.Steps))
	}
	if p := Build(Fluid, from, to, 0); len(p.Steps) != n {
		t.Errorf("fluid steps = %d, want %d", len(p.Steps), n)
	} else {
		for _, s := range p.Steps {
			if len(s.Moves) != 1 {
				t.Errorf("fluid step has %d moves", len(s.Moves))
			}
		}
	}
	if p := Build(Batched, from, to, 8); len(p.Steps) != (n+7)/8 {
		t.Errorf("batched steps = %d, want %d", len(p.Steps), (n+7)/8)
	}
}

// TestMatchingDisjointness: within each optimized step, no source or
// destination worker appears twice (the bipartite-matching property of
// Section 4.4).
func TestMatchingDisjointness(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bins := 1 << (3 + rng.Intn(5))
		peers := 2 + rng.Intn(6)
		from := Initial(bins, peers)
		to := make(Assignment, bins)
		for b := range to {
			to[b] = rng.Intn(peers)
		}
		p := Build(Optimized, from, to, 1+rng.Intn(16))
		for _, st := range p.Steps {
			src := make(map[int]bool)
			dst := make(map[int]bool)
			for _, m := range st.Moves {
				if src[from[m.Bin]] || dst[m.Worker] {
					return false
				}
				src[from[m.Bin]] = true
				dst[m.Worker] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOptimizedHasGaps: optimized steps request the drain gap.
func TestOptimizedHasGaps(t *testing.T) {
	p := Build(Optimized, Initial(16, 4), Rebalance(16, []int{0}), 4)
	if len(p.Steps) == 0 {
		t.Fatal("no steps")
	}
	for i, s := range p.Steps {
		if !s.Gap {
			t.Errorf("step %d missing gap", i)
		}
	}
	_ = core.Move{}
}

// TestStrategyByName: every strategy resolves from its String name, and an
// unknown name is an error.
func TestStrategyByName(t *testing.T) {
	for _, want := range []Strategy{AllAtOnce, Fluid, Batched, Optimized} {
		if got, err := StrategyByName(want.String()); err != nil || got != want {
			t.Errorf("StrategyByName(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	for _, bad := range []string{"", "nope", "Fluid", "Strategy(4)"} {
		if _, err := StrategyByName(bad); err == nil {
			t.Errorf("StrategyByName(%q) succeeded, want an error", bad)
		}
	}
}
