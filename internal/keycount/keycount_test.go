package keycount_test

import (
	"testing"
	"time"

	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/plan"
)

// TestRunWithMigration runs a short open-loop hash-count with a fluid
// migration and checks the run completes with records processed and the
// migration observed.
func TestRunWithMigration(t *testing.T) {
	for _, strat := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched, plan.Optimized} {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := keycount.Run(keycount.RunConfig{
				Params: keycount.Params{
					Variant: keycount.HashCount,
					LogBins: 4,
					Domain:  1 << 12,
				},
				Config: harness.Config{
					Workers:    2,
					Rate:       20000,
					Duration:   1500 * time.Millisecond,
					EpochEvery: time.Millisecond,
					Strategy:   strat,
					Batch:      4,
					MigrateAt:  500 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Records == 0 {
				t.Fatal("no records injected")
			}
			if res.Hist.Count() == 0 {
				t.Fatal("no latencies recorded")
			}
			if len(res.MigrationSpans) != 1 {
				t.Fatalf("got %d migration spans, want 1", len(res.MigrationSpans))
			}
			sp := res.MigrationSpans[0]
			if sp.End < sp.Start {
				t.Errorf("span ends before it starts: %+v", sp)
			}
			t.Logf("%s: records=%d spans=%+v p99=%v", strat, res.Records, res.MigrationSpans, res.Hist.Quantile(0.99))
		})
	}
}

// TestVariantsComplete smoke-tests every variant end to end.
func TestVariantsComplete(t *testing.T) {
	for _, v := range []keycount.Variant{keycount.HashCount, keycount.KeyCount, keycount.NativeHash, keycount.NativeKey} {
		t.Run(v.String(), func(t *testing.T) {
			res, err := keycount.Run(keycount.RunConfig{
				Params: keycount.Params{
					Variant: v,
					LogBins: 4,
					Domain:  1 << 10,
					Preload: true,
				},
				Config: harness.Config{
					Workers:  2,
					Rate:     10000,
					Duration: 400 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Records == 0 || res.Hist.Count() == 0 {
				t.Fatalf("variant %v produced no measurements", v)
			}
		})
	}
}
