// Package megaphone's root benchmarks regenerate the paper's tables and
// figures as testing.B benchmarks: one benchmark per experiment, each
// reporting the metrics the paper plots as custom benchmark units
// (max-latency ms, migration duration s, percentiles). Absolute numbers
// reflect this repository's single-process substrate; the shapes — who wins,
// by roughly what factor, where crossovers fall — are the reproduction
// targets recorded in EXPERIMENTS.md.
//
// Run everything:    go test -bench=. -benchmem
// One figure:        go test -bench=BenchmarkFigure16 -benchtime=1x
package megaphone_test

import (
	"fmt"
	"testing"
	"time"

	"megaphone/internal/keycount"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

// benchDuration keeps every measurement run short enough for a full
// -bench=. pass while leaving room for steady state around the migration.
const (
	benchDuration  = 4 * time.Second
	benchMigrateAt = 2 * time.Second
	benchRate      = 100_000
	benchWorkers   = 4
)

// runKeycount is the shared body of the key-count figure benchmarks.
func runKeycount(b *testing.B, cfg keycount.RunConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := keycount.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.MigrationSpans) > 0 {
			sp := res.MigrationSpans[0]
			b.ReportMetric(sp.MaxLatency, "mig-max-ms")
			b.ReportMetric(sp.Duration, "mig-dur-s")
		}
		b.ReportMetric(float64(res.Hist.Quantile(0.99))/1e6, "p99-ms")
		b.ReportMetric(float64(res.Hist.Max())/1e6, "max-ms")
		b.ReportMetric(float64(res.Records)/res.Elapsed, "records/s")
	}
}

// BenchmarkFigure01 — the headline comparison: all-at-once vs fluid vs
// optimized migration of a large keyed state.
func BenchmarkFigure01(b *testing.B) {
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Optimized} {
		b.Run(st.String(), func(b *testing.B) {
			runKeycount(b, keycount.RunConfig{
				Params: keycount.Params{
					Variant: keycount.HashCount,
					LogBins: 8,
					Domain:  1 << 21,
					Preload: true,
				},
				Workers:   benchWorkers,
				Rate:      benchRate,
				Duration:  benchDuration,
				Strategy:  st,
				Batch:     16,
				MigrateAt: benchMigrateAt,
			})
		})
	}
}

// BenchmarkTable01 — lines of code of the NEXMark implementations.
func BenchmarkTable01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		native, mega, err := nexmark.LoC()
		if err != nil {
			b.Fatal(err)
		}
		var n, m int
		for _, v := range native {
			n += v
		}
		for _, v := range mega {
			m += v
		}
		b.ReportMetric(float64(n), "native-loc")
		b.ReportMetric(float64(m), "megaphone-loc")
	}
}

// benchQuery is the shared body of the NEXMark figure benchmarks
// (Figures 5-12): the second, re-balancing migration of each query under
// all-at-once and batched strategies.
func benchQuery(b *testing.B, q string) {
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Batched} {
		b.Run(st.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := nexmark.Run(nexmark.RunConfig{
					Query:     q,
					Params:    nexmark.Params{Impl: nexmark.Megaphone, LogBins: 8},
					Workers:   benchWorkers,
					Rate:      benchRate,
					Duration:  benchDuration,
					Strategy:  st,
					Batch:     16,
					MigrateAt: benchMigrateAt,
				})
				if err != nil {
					b.Fatal(err)
				}
				if n := len(res.MigrationSpans); n > 0 {
					sp := res.MigrationSpans[n-1]
					b.ReportMetric(sp.MaxLatency, "mig-max-ms")
					b.ReportMetric(sp.Duration, "mig-dur-s")
				}
				b.ReportMetric(float64(res.Hist.Quantile(0.99))/1e6, "p99-ms")
			}
		})
	}
}

// BenchmarkFigure05 — Q1 (stateless): no migration disruption.
func BenchmarkFigure05(b *testing.B) { benchQuery(b, "q1") }

// BenchmarkFigure06 — Q2 (stateless): no migration disruption.
func BenchmarkFigure06(b *testing.B) { benchQuery(b, "q2") }

// BenchmarkFigure07 — Q3 incremental join (state grows without bound).
func BenchmarkFigure07(b *testing.B) { benchQuery(b, "q3") }

// BenchmarkFigure08 — Q4 closing-price averages (bounded state).
func BenchmarkFigure08(b *testing.B) { benchQuery(b, "q4") }

// BenchmarkFigure09 — Q5 sliding-window hot items (dilated).
func BenchmarkFigure09(b *testing.B) { benchQuery(b, "q5") }

// BenchmarkFigure10 — Q6 per-seller closing averages.
func BenchmarkFigure10(b *testing.B) { benchQuery(b, "q6") }

// BenchmarkFigure11 — Q7 highest bid (minimal state; strategies equal).
func BenchmarkFigure11(b *testing.B) { benchQuery(b, "q7") }

// BenchmarkFigure12 — Q8 windowed person/seller join (dilated).
func BenchmarkFigure12(b *testing.B) { benchQuery(b, "q8") }

// benchOverhead is the shared body of Figures 13-15: steady-state latency
// percentiles as the bin count grows, against the native implementation.
func benchOverhead(b *testing.B, v keycount.Variant, native keycount.Variant, domain int64) {
	for _, lb := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("bins=2^%d", lb), func(b *testing.B) {
			runKeycount(b, keycount.RunConfig{
				Params:   keycount.Params{Variant: v, LogBins: lb, Domain: domain, Preload: true},
				Workers:  benchWorkers,
				Rate:     benchRate,
				Duration: benchDuration,
			})
		})
	}
	b.Run("native", func(b *testing.B) {
		runKeycount(b, keycount.RunConfig{
			Params:   keycount.Params{Variant: native, LogBins: 4, Domain: domain},
			Workers:  benchWorkers,
			Rate:     benchRate,
			Duration: benchDuration,
		})
	})
}

// BenchmarkFigure13 — hash-count overhead vs bin count.
func BenchmarkFigure13(b *testing.B) {
	benchOverhead(b, keycount.HashCount, keycount.NativeHash, 1<<20)
}

// BenchmarkFigure14 — key-count overhead vs bin count.
func BenchmarkFigure14(b *testing.B) {
	benchOverhead(b, keycount.KeyCount, keycount.NativeKey, 1<<20)
}

// BenchmarkFigure15 — key-count overhead, larger domain.
func BenchmarkFigure15(b *testing.B) {
	benchOverhead(b, keycount.KeyCount, keycount.NativeKey, 1<<23)
}

// benchSweep runs one migration configuration (Figures 16-18 points).
func benchSweep(b *testing.B, st plan.Strategy, logBins int, domain int64) {
	runKeycount(b, keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: logBins,
			Domain:  domain,
			Preload: true,
		},
		Workers:   benchWorkers,
		Rate:      benchRate,
		Duration:  benchDuration,
		Strategy:  st,
		Batch:     16,
		MigrateAt: benchMigrateAt,
	})
}

// BenchmarkFigure16 — latency vs duration while bins vary (fixed domain).
func BenchmarkFigure16(b *testing.B) {
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, lb := range []int{4, 6, 8, 10} {
			b.Run(fmt.Sprintf("%s/bins=2^%d", st, lb), func(b *testing.B) {
				benchSweep(b, st, lb, 1<<21)
			})
		}
	}
}

// BenchmarkFigure17 — latency vs duration while the domain varies.
func BenchmarkFigure17(b *testing.B) {
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, d := range []int64{1 << 19, 1 << 20, 1 << 21, 1 << 22} {
			b.Run(fmt.Sprintf("%s/domain=%dM", st, d>>20), func(b *testing.B) {
				benchSweep(b, st, 8, d)
			})
		}
	}
}

// BenchmarkFigure18 — domain and bins grow together (fixed keys per bin):
// fluid/batched max latency should stay flat while duration grows.
func BenchmarkFigure18(b *testing.B) {
	cfgs := []struct {
		logBins int
		domain  int64
	}{{6, 1 << 19}, {7, 1 << 20}, {8, 1 << 21}, {9, 1 << 22}}
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, c := range cfgs {
			b.Run(fmt.Sprintf("%s/bins=2^%d", st, c.logBins), func(b *testing.B) {
				benchSweep(b, st, c.logBins, c.domain)
			})
		}
	}
}

// BenchmarkFigure19 — offered load vs max latency per strategy.
func BenchmarkFigure19(b *testing.B) {
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, rate := range []int{50_000, 100_000, 200_000, 400_000} {
			b.Run(fmt.Sprintf("%s/rate=%d", st, rate), func(b *testing.B) {
				runKeycount(b, keycount.RunConfig{
					Params: keycount.Params{
						Variant: keycount.HashCount,
						LogBins: 8,
						Domain:  1 << 21,
						Preload: true,
					},
					Workers:   benchWorkers,
					Rate:      rate,
					Duration:  benchDuration,
					Strategy:  st,
					Batch:     16,
					MigrateAt: benchMigrateAt,
				})
			})
		}
	}
}

// BenchmarkFigure20 — peak heap per strategy: all-at-once spikes.
func BenchmarkFigure20(b *testing.B) {
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		b.Run(st.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := keycount.Run(keycount.RunConfig{
					Params: keycount.Params{
						Variant: keycount.HashCount,
						LogBins: 8,
						Domain:  1 << 22,
						Preload: true,
					},
					Workers:   benchWorkers,
					Rate:      benchRate,
					Duration:  benchDuration,
					Strategy:  st,
					Batch:     16,
					MigrateAt: benchMigrateAt,
					Memory:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Memory.Max()/(1<<20), "peak-heap-MiB")
				b.ReportMetric(res.Memory.Quantile(0.5)/(1<<20), "p50-heap-MiB")
			}
		})
	}
}

// BenchmarkAblationOptimized — plain batched vs the Section 4.4 optimized
// plan (bipartite matching + drain gaps) at equal batch size.
func BenchmarkAblationOptimized(b *testing.B) {
	for _, st := range []plan.Strategy{plan.Batched, plan.Optimized} {
		b.Run(st.String(), func(b *testing.B) {
			runKeycount(b, keycount.RunConfig{
				Params: keycount.Params{
					Variant: keycount.HashCount,
					LogBins: 8,
					Domain:  1 << 21,
					Preload: true,
				},
				Workers:   benchWorkers,
				Rate:      benchRate,
				Duration:  benchDuration,
				Strategy:  st,
				Batch:     8,
				MigrateAt: benchMigrateAt,
			})
		})
	}
}

// BenchmarkAblationBinsSteadyState — pure routing-table overhead: steady
// state throughput of the megaphone operator as the bin count grows, with
// no migration at all (complements Figures 13-15 with allocation counts).
// The offered rate is set far above what the substrate sustains and the
// epochs are fine-grained, so records/s (records / wall-clock until
// drained) measures the runtime's actual capacity in the paper's
// latency-conscious operating regime rather than the open-loop pacing.
func BenchmarkAblationBinsSteadyState(b *testing.B) {
	for _, lb := range []int{4, 10, 16} {
		b.Run(fmt.Sprintf("bins=2^%d", lb), func(b *testing.B) {
			runKeycount(b, keycount.RunConfig{
				Params:     keycount.Params{Variant: keycount.KeyCount, LogBins: lb, Domain: 1 << 20, Preload: true},
				Workers:    benchWorkers,
				Rate:       24_000_000,
				EpochEvery: 250 * time.Microsecond,
				Duration:   benchDuration / 8,
			})
		})
	}
}
