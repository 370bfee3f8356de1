package plan

import (
	"testing"

	"megaphone/internal/core"
)

// snap builds a LoadSnapshot from per-bin nanos (recs derived at 1 rec per
// 1000ns) under the given assignment.
func snap(assign Assignment, workers int, binNanos []uint64) *core.LoadSnapshot {
	s := &core.LoadSnapshot{
		Workers:     workers,
		Bins:        len(binNanos),
		BinNanos:    append([]uint64(nil), binNanos...),
		BinRecs:     make([]uint64, len(binNanos)),
		WorkerRecs:  make([]uint64, workers),
		WorkerNanos: make([]uint64, workers),
	}
	for b, n := range binNanos {
		s.BinRecs[b] = n / 1000
		s.WorkerNanos[assign[b]] += n
		s.WorkerRecs[assign[b]] += n / 1000
	}
	return s
}

// TestCostModelGoldenDecisions pins the migrate/decline verdicts for the
// canonical scenarios from the issue: profitable rebalances migrate, while
// "hot set about to rotate" and "volume exceeds recovery" decline.
func TestCostModelGoldenDecisions(t *testing.T) {
	// 4 bins on 2 workers; bins 0,1 -> worker 0, bins 2,3 -> worker 1.
	current := Assignment{0, 0, 1, 1}
	balanced := Assignment{0, 1, 1, 0} // swaps one hot bin per side

	cases := []struct {
		name      string
		model     CostModel
		target    Assignment
		window    []uint64 // per-bin window nanos
		cumRecs   []uint64 // per-bin cumulative recs (state volume)
		stability int
		migrate   bool
		reason    string
	}{
		{
			name: "profitable rebalance migrates",
			// Worker 0 carries 8ms/window vs worker 1's 2ms; moving bin 1
			// brings the max down to 6ms. Gain 2ms/window × 8 windows = 16ms
			// against ~1ms stall + tiny volume.
			model:   CostModel{},
			target:  Assignment{0, 1, 1, 1},
			window:  []uint64{4e6, 4e6, 1e6, 1e6},
			cumRecs: []uint64{100, 100, 100, 100},
			migrate: true,
		},
		{
			name:    "identical target declines with no-moves",
			model:   CostModel{},
			target:  append(Assignment(nil), current...),
			window:  []uint64{4e6, 4e6, 1e6, 1e6},
			cumRecs: []uint64{100, 100, 100, 100},
			reason:  ReasonNoMoves,
		},
		{
			name: "volume exceeds recovery declines",
			// The same 2ms/window gain, but the moved bin carries 10M
			// cumulative records: 10M × 250ns = 2.5s of migration work against
			// 16ms of credited gain.
			model:   CostModel{},
			target:  Assignment{0, 1, 1, 1},
			window:  []uint64{4e6, 4e6, 1e6, 1e6},
			cumRecs: []uint64{0, 10_000_000, 0, 0},
			reason:  ReasonVolume,
		},
		{
			name: "hot set about to rotate declines",
			// A freshly rotated hot set (stability=1) earns a 1-window
			// horizon: 2ms of credit cannot repay 1ms stall + 1M recs moved.
			model:     CostModel{CapToStability: true},
			target:    Assignment{0, 1, 1, 1},
			window:    []uint64{4e6, 4e6, 1e6, 1e6},
			cumRecs:   []uint64{0, 1_000_000, 0, 0},
			stability: 1,
			reason:    ReasonVolume,
		},
		{
			name: "stable hot set migrates despite the cap",
			// Same trade, but the hot worker has held for 100 windows: the
			// horizon cap is the model's own default again.
			model:     CostModel{CapToStability: true},
			target:    Assignment{0, 1, 1, 1},
			window:    []uint64{4e6, 4e6, 1e6, 1e6},
			cumRecs:   []uint64{0, 10_000, 0, 0},
			stability: 100,
			migrate:   true,
		},
		{
			name: "no projected gain declines",
			// The swap reshuffles bins without lowering the hottest worker.
			model:   CostModel{},
			target:  balanced,
			window:  []uint64{3e6, 2e6, 2e6, 3e6},
			cumRecs: []uint64{10, 10, 10, 10},
			reason:  ReasonNoGain,
		},
		{
			name: "recs-only window uses the nominal rate",
			// No measured nanos: 40k recs gap × 100ns nominal = 4ms/window
			// gain × 8 windows vs 1ms stall + 100 recs × 250ns.
			model:   CostModel{},
			target:  Assignment{0, 1, 1, 1},
			window:  nil, // per-bin recs set below via cumRecs-style helper
			cumRecs: []uint64{100, 100, 100, 100},
			migrate: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var window *core.LoadSnapshot
			if tc.window != nil {
				window = snap(current, 2, tc.window)
			} else {
				window = &core.LoadSnapshot{
					Workers:  2,
					Bins:     4,
					BinRecs:  []uint64{40_000, 40_000, 10_000, 10_000},
					BinNanos: make([]uint64, 4),
				}
			}
			cumulative := &core.LoadSnapshot{
				Workers: 2, Bins: 4,
				BinRecs:  append([]uint64(nil), tc.cumRecs...),
				BinNanos: make([]uint64, 4),
			}
			v := tc.model.Evaluate(current, tc.target, window, cumulative, tc.stability)
			if v.Migrate != tc.migrate {
				t.Fatalf("migrate = %v, want %v (verdict %+v)", v.Migrate, tc.migrate, v)
			}
			if !tc.migrate && v.Reason != tc.reason {
				t.Fatalf("reason = %q, want %q (verdict %+v)", v.Reason, tc.reason, v)
			}
			if tc.migrate && v.Reason != "" {
				t.Fatalf("migrating verdict carries reason %q", v.Reason)
			}
		})
	}
}

// TestCostModelVerdictAccounting pins the arithmetic: volume sums only moved
// bins, cost is volume×rate+stall, gain is per-window delta×horizon.
func TestCostModelVerdictAccounting(t *testing.T) {
	current := Assignment{0, 0, 1, 1}
	target := Assignment{0, 1, 1, 1}
	window := snap(current, 2, []uint64{4e6, 4e6, 1e6, 1e6})
	cumulative := &core.LoadSnapshot{
		Workers: 2, Bins: 4,
		BinRecs:  []uint64{111, 2000, 333, 444}, // only bin 1 moves
		BinNanos: make([]uint64, 4),
	}
	m := CostModel{MigrateNanosPerRec: 10, StallNanos: 500}
	v := m.Evaluate(current, target, window, cumulative, 0)
	if v.VolumeRecs != 2000 {
		t.Fatalf("volume = %d, want 2000 (moved bins only)", v.VolumeRecs)
	}
	if want := uint64(2000*10 + 500); v.CostNanos != want {
		t.Fatalf("cost = %d, want %d", v.CostNanos, want)
	}
	// current max = 8e6 (worker 0), target max = 6e6 (worker 1) → 2e6/window.
	if want := uint64(2e6 * horizonWindows); v.GainNanos != want {
		t.Fatalf("gain = %d, want %d", v.GainNanos, want)
	}
	if v.Horizon != horizonWindows {
		t.Fatalf("horizon = %d, want %d", v.Horizon, horizonWindows)
	}
	if !v.Migrate {
		t.Fatalf("profitable trade declined: %+v", v)
	}
}

// TestCostModelHysteresisEdges drives the gate right at the break-even
// boundary: gain == cost must decline (strict inequality keeps the loop from
// thrashing on a wash), gain == cost+1 must migrate.
func TestCostModelHysteresisEdges(t *testing.T) {
	// Both bins start on worker 0; the target offloads bin 1 to worker 1, so
	// gain per window = (a+b) − max(a,b) = min(a,b), credited over
	// horizonWindows (8) windows, and volume = cumRecs[1].
	current := Assignment{0, 0}
	target := Assignment{0, 1}
	m := CostModel{MigrateNanosPerRec: 1, StallNanos: 8}

	eval := func(binNanos []uint64, cumRecs []uint64) Verdict {
		w := snap(current, 2, binNanos)
		c := &core.LoadSnapshot{Workers: 2, Bins: 2,
			BinRecs: cumRecs, BinNanos: make([]uint64, 2)}
		return m.Evaluate(current, target, w, c, 0)
	}

	// Bin 1 carries nothing: offloading it gains zero.
	if v := eval([]uint64{100, 0}, []uint64{4, 8}); v.Migrate || v.Reason != ReasonNoGain {
		t.Fatalf("zero-gain offload migrated: %+v", v)
	}
	// Volume 8 at 1ns/rec + 8ns stall = cost 16 = gain 2×8. Gain == cost
	// exactly must decline: a wash trade that migrated would let the loop
	// thrash forever.
	if v := eval([]uint64{100, 2}, []uint64{4, 8}); v.GainNanos != v.CostNanos {
		t.Fatalf("setup wrong: gain %d cost %d", v.GainNanos, v.CostNanos)
	} else if v.Migrate {
		t.Fatalf("break-even trade migrated: %+v", v)
	}
	// One nano less of cost tips it over.
	if v := eval([]uint64{100, 2}, []uint64{4, 7}); v.GainNanos != v.CostNanos+1 {
		t.Fatalf("setup wrong: gain %d cost %d", v.GainNanos, v.CostNanos)
	} else if !v.Migrate {
		t.Fatalf("gain=cost+1 declined: %+v", v)
	}
}

// TestCostModelDefaults pins the documented default constants.
func TestCostModelDefaults(t *testing.T) {
	var m CostModel
	if m.migrateNanosPerRec() != 250 || m.stallNanos() != 1_000_000 {
		t.Fatalf("defaults drifted: rate=%d stall=%d", m.migrateNanosPerRec(), m.stallNanos())
	}
}
