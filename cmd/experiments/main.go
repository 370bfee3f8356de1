// Command experiments regenerates every table and figure of the Megaphone
// paper's evaluation at laptop scale, printing the same rows/series the
// paper reports. README.md's "Reproducing the paper's experiments" says
// how to run them, in one process or across several.
//
// Usage:
//
//	experiments -exp fig1          # one experiment
//	experiments -exp all -quick    # everything, shrunk durations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

type config struct {
	workers int
	quick   bool
	out     io.Writer
	// cluster, when non-nil, runs every experiment's dataflows across OS
	// processes: each run joins a fresh mesh, so all processes must execute
	// the same experiment sequence (same flags apart from -process).
	cluster *dataflow.ClusterSpec
	// runSeq numbers the cluster runs; it advances identically on every
	// process (same experiment sequence) and salts each mesh's handshake
	// so overlapping generations on the same ports reject cleanly.
	runSeq *atomic.Uint64
}

// clusterSpec returns this run's cluster spec (with its generation stamped)
// or nil in single-process mode.
func (c config) clusterSpec() *dataflow.ClusterSpec {
	if c.cluster == nil {
		return nil
	}
	spec := *c.cluster
	spec.Generation = c.runSeq.Add(1)
	return &spec
}

// runKeycount executes one keycount run with the driver's cluster spec
// applied. Experiment runs are scripted, so configuration errors are bugs
// and cluster join failures are fatal.
func (c config) runKeycount(cfg keycount.RunConfig) harness.Result {
	cfg.Cluster = c.clusterSpec()
	res, err := keycount.Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// runNexmark is runKeycount for NEXMark queries.
func (c config) runNexmark(cfg nexmark.RunConfig) harness.Result {
	cfg.Cluster = c.clusterSpec()
	res, err := nexmark.Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment: table1, fig1, fig5..fig20, skew, autoscale, recovery, or all")
		workers = fs.Int("workers", 4, "number of workers")
		quick   = fs.Bool("quick", false, "shrink durations for a fast pass")
		hosts   = fs.String("hosts", "", "comma-separated host:port list, one per process; runs every experiment across processes (start all processes with identical flags apart from -process)")
		proc    = fs.Int("process", 0, "this process's index into -hosts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers %d: want at least 1", *workers)
	}
	c := config{workers: *workers, quick: *quick, out: out}
	if *hosts != "" {
		hs := strings.Split(*hosts, ",")
		if *proc < 0 || *proc >= len(hs) {
			return fmt.Errorf("-process %d: want an index into the %d -hosts", *proc, len(hs))
		}
		c.cluster = &dataflow.ClusterSpec{Hosts: hs, Process: *proc}
		c.runSeq = new(atomic.Uint64)
	}

	all := map[string]func(config){
		"table1":    table1,
		"fig1":      fig1,
		"skew":      skewExp,
		"autoscale": autoscaleExp,
		"recovery":  recoveryExp,
		"fig5":      func(c config) { statelessFig(c, "fig5", "q1") },
		"fig6":      func(c config) { statelessFig(c, "fig6", "q2") },
		"fig7":      func(c config) { queryFig(c, "fig7", "q3", true) },
		"fig8":      func(c config) { queryFig(c, "fig8", "q4", false) },
		"fig9":      func(c config) { queryFig(c, "fig9", "q5", false) },
		"fig10":     func(c config) { queryFig(c, "fig10", "q6", false) },
		"fig11":     func(c config) { queryFig(c, "fig11", "q7", false) },
		"fig12":     func(c config) { queryFig(c, "fig12", "q8", false) },
		"fig13":     func(c config) { overheadFig(c, "fig13", keycount.HashCount, 1<<20) },
		"fig14":     func(c config) { overheadFig(c, "fig14", keycount.KeyCount, 1<<20) },
		"fig15":     func(c config) { overheadFig(c, "fig15", keycount.KeyCount, 1<<23) },
		"fig16":     fig16,
		"fig17":     fig17,
		"fig18":     fig18,
		"fig19":     fig19,
		"fig20":     fig20,
	}
	if *exp == "all" {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return orderKey(names[i]) < orderKey(names[j])
		})
		for _, n := range names {
			all[n](c)
		}
		return nil
	}
	fn, ok := all[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	fn(c)
	return nil
}

func orderKey(n string) int {
	switch n {
	case "table1":
		return 0
	case "skew":
		return 900 // the new ablations run after the paper's figures
	case "autoscale":
		return 901
	case "recovery":
		return 902
	}
	var x int
	fmt.Sscanf(n, "fig%d", &x)
	return x
}

func header(c config, name, what string) {
	fmt.Fprintf(c.out, "\n==================== %s: %s ====================\n", strings.ToUpper(name), what)
}

// scale shrinks durations under -quick.
func (c config) dur(d time.Duration) time.Duration {
	if c.quick {
		return d / 4
	}
	return d
}

// table1 — lines of code of the NEXMark query implementations.
func table1(c config) {
	header(c, "table1", "NEXMark query implementations, lines of code")
	native, mega, err := nexmark.LoC()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Fprintf(c.out, "%-12s", "")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(c.out, "%6s", fmt.Sprintf("Q%d", i))
	}
	fmt.Fprintln(c.out)
	fmt.Fprintf(c.out, "%-12s", "Native")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(c.out, "%6d", native[fmt.Sprintf("q%d", i)])
	}
	fmt.Fprintln(c.out)
	fmt.Fprintf(c.out, "%-12s", "Megaphone")
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(c.out, "%6d", mega[fmt.Sprintf("q%d", i)])
	}
	fmt.Fprintln(c.out)
}

// fig1 — all-at-once vs fluid vs optimized on a large key-count migration.
func fig1(c config) {
	header(c, "fig1", "migration strategies on key-count (latency timelines)")
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Optimized} {
		res := c.runKeycount(keycount.RunConfig{
			Params: keycount.Params{
				Variant: keycount.HashCount,
				LogBins: 8,
				Domain:  1 << 21,
				Preload: true,
			},
			Config: harness.Config{
				Workers:   c.workers,
				Rate:      200_000,
				Duration:  c.dur(12 * time.Second),
				Strategy:  st,
				Batch:     16,
				MigrateAt: c.dur(6 * time.Second),
			},
		})
		fmt.Fprintf(c.out, "\n--- %v ---\n", st)
		res.Timeline.Fprint(c.out)
		printSpans(c, res)
	}
}

// statelessFig — Q1/Q2: no state, migration is a no-op.
func statelessFig(c config, name, q string) {
	header(c, name, "NEXMark "+q+" (stateless): reconfigurations cause no spike")
	res := c.runNexmark(nexmark.RunConfig{
		Query:  q,
		Params: nexmark.Params{Impl: nexmark.Megaphone, LogBins: 8},
		Config: harness.Config{
			Workers:   c.workers,
			Rate:      200_000,
			Duration:  c.dur(9 * time.Second),
			Strategy:  plan.Batched,
			Batch:     16,
			MigrateAt: c.dur(3 * time.Second),
		},
	})
	res.Timeline.Fprint(c.out)
	printSpans(c, res)
}

// queryFig — stateful NEXMark queries: all-at-once vs batched (vs native).
func queryFig(c config, name, q string, withNative bool) {
	header(c, name, "NEXMark "+q+": all-at-once vs Megaphone batched")
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Batched} {
		res := c.runNexmark(nexmark.RunConfig{
			Query:  q,
			Params: nexmark.Params{Impl: nexmark.Megaphone, LogBins: 8},
			Config: harness.Config{
				Workers:   c.workers,
				Rate:      200_000,
				Duration:  c.dur(12 * time.Second),
				Strategy:  st,
				Batch:     16,
				MigrateAt: c.dur(4 * time.Second),
			},
		})
		fmt.Fprintf(c.out, "\n--- %s %v ---\n", q, st)
		res.Timeline.Fprint(c.out)
		printSpans(c, res)
	}
	if withNative {
		res := c.runNexmark(nexmark.RunConfig{
			Query:  q,
			Params: nexmark.Params{Impl: nexmark.Native},
			Config: harness.Config{
				Workers:  c.workers,
				Rate:     200_000,
				Duration: c.dur(12 * time.Second),
			},
		})
		fmt.Fprintf(c.out, "\n--- %s native ---\n", q)
		res.Timeline.Fprint(c.out)
	}
}

// overheadFig — steady-state CCDF/percentiles vs bin count (Figures 13-15).
func overheadFig(c config, name string, v keycount.Variant, domain int64) {
	header(c, name, fmt.Sprintf("%v overhead, domain=%d: percentiles by bin count", v, domain))
	fmt.Fprintf(c.out, "%-12s %10s %10s %10s %10s\n", "experiment", "90%[ms]", "99%[ms]", "99.99%[ms]", "max[ms]")
	logBins := []int{4, 8, 12, 16}
	if c.quick {
		logBins = []int{4, 12}
	}
	run := func(label string, variant keycount.Variant, bins int) {
		res := c.runKeycount(keycount.RunConfig{
			Params: keycount.Params{
				Variant: variant,
				LogBins: bins,
				Domain:  domain,
				Preload: true,
			},
			Config: harness.Config{
				Workers:  c.workers,
				Rate:     200_000,
				Duration: c.dur(6 * time.Second),
			},
		})
		h := res.Hist
		ms := func(v int64) float64 { return float64(v) / 1e6 }
		fmt.Fprintf(c.out, "%-12s %10.2f %10.2f %10.2f %10.2f\n", label,
			ms(h.Quantile(0.90)), ms(h.Quantile(0.99)), ms(h.Quantile(0.9999)), ms(h.Max()))
	}
	for _, lb := range logBins {
		run(fmt.Sprintf("%d", lb), v, lb)
	}
	nat := keycount.NativeHash
	if v == keycount.KeyCount {
		nat = keycount.NativeKey
	}
	run("Native", nat, 4)
}

// sweepRow runs one migration configuration and prints its latency/duration
// point (the coordinates of Figures 16-18).
func sweepRow(c config, st plan.Strategy, logBins int, domain int64, rate int, label string) {
	res := c.runKeycount(keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: logBins,
			Domain:  domain,
			Preload: true,
		},
		Config: harness.Config{
			Workers:   c.workers,
			Rate:      rate,
			Duration:  c.dur(10 * time.Second),
			Strategy:  st,
			Batch:     16,
			MigrateAt: c.dur(5 * time.Second),
		},
	})
	if len(res.MigrationSpans) > 0 {
		sp := res.MigrationSpans[0]
		fmt.Fprintf(c.out, "%-12v %-12s %12.3f %14.2f\n", st, label, sp.Duration, sp.MaxLatency)
	} else {
		fmt.Fprintf(c.out, "%-12v %-12s %12s %14s\n", st, label, "-", "-")
	}
}

// fig16 — latency vs duration while the bin count varies.
func fig16(c config) {
	header(c, "fig16", "migration latency vs duration, varying bin count (fixed domain)")
	fmt.Fprintf(c.out, "%-12s %-12s %12s %14s\n", "strategy", "bins", "duration[s]", "max-latency[ms]")
	logBins := []int{4, 6, 8, 10}
	if c.quick {
		logBins = []int{4, 8}
	}
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, lb := range logBins {
			sweepRow(c, st, lb, 1<<21, 200_000, fmt.Sprintf("2^%d", lb))
		}
	}
}

// fig17 — latency vs duration while the domain varies.
func fig17(c config) {
	header(c, "fig17", "migration latency vs duration, varying domain (fixed bins)")
	fmt.Fprintf(c.out, "%-12s %-12s %12s %14s\n", "strategy", "domain", "duration[s]", "max-latency[ms]")
	domains := []int64{1 << 19, 1 << 20, 1 << 21, 1 << 22}
	if c.quick {
		domains = []int64{1 << 19, 1 << 21}
	}
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, d := range domains {
			sweepRow(c, st, 8, d, 200_000, fmt.Sprintf("%dM", d>>20))
		}
	}
}

// fig18 — domain and bins grow proportionally: keys-per-bin fixed.
func fig18(c config) {
	header(c, "fig18", "migration latency vs duration, fixed state per bin")
	fmt.Fprintf(c.out, "%-12s %-12s %12s %14s\n", "strategy", "bins", "duration[s]", "max-latency[ms]")
	cfgs := []struct {
		logBins int
		domain  int64
	}{{6, 1 << 19}, {7, 1 << 20}, {8, 1 << 21}, {9, 1 << 22}}
	if c.quick {
		cfgs = cfgs[:2]
	}
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		for _, kc := range cfgs {
			sweepRow(c, st, kc.logBins, kc.domain, 200_000, fmt.Sprintf("2^%d", kc.logBins))
		}
	}
}

// fig19 — offered load vs max latency per strategy.
func fig19(c config) {
	header(c, "fig19", "offered load vs max latency")
	fmt.Fprintf(c.out, "%-14s %12s %14s %14s\n", "strategy", "rate[/s]", "max[ms]", "p99[ms]")
	rates := []int{50_000, 100_000, 200_000, 400_000, 800_000}
	if c.quick {
		rates = []int{100_000, 400_000}
	}
	type variant struct {
		name string
		st   plan.Strategy
		mig  bool
	}
	for _, v := range []variant{
		{"non-migrating", plan.Batched, false},
		{"all-at-once", plan.AllAtOnce, true},
		{"fluid", plan.Fluid, true},
		{"batched", plan.Batched, true},
	} {
		for _, r := range rates {
			cfg := keycount.RunConfig{
				Params: keycount.Params{
					Variant: keycount.HashCount,
					LogBins: 8,
					Domain:  1 << 21,
					Preload: true,
				},
				Config: harness.Config{
					Workers:  c.workers,
					Rate:     r,
					Duration: c.dur(8 * time.Second),
					Strategy: v.st,
					Batch:    16,
				},
			}
			if v.mig {
				cfg.MigrateAt = c.dur(4 * time.Second)
			}
			res := c.runKeycount(cfg)
			fmt.Fprintf(c.out, "%-14s %12d %14.2f %14.2f\n", v.name, r,
				float64(res.Hist.Max())/1e6, float64(res.Hist.Quantile(0.99))/1e6)
		}
	}
}

// fig20 — memory over time per strategy.
func fig20(c config) {
	header(c, "fig20", "heap bytes over time per migration strategy")
	for _, st := range []plan.Strategy{plan.AllAtOnce, plan.Fluid, plan.Batched} {
		res := c.runKeycount(keycount.RunConfig{
			Params: keycount.Params{
				Variant: keycount.HashCount,
				LogBins: 8,
				Domain:  1 << 22,
				Preload: true,
			},
			Config: harness.Config{
				Workers:   c.workers,
				Rate:      200_000,
				Duration:  c.dur(12 * time.Second),
				Strategy:  st,
				Batch:     16,
				MigrateAt: c.dur(4 * time.Second),
			},
			Extras: harness.Extras{MigrateTwo: true, Memory: true},
		})
		fmt.Fprintf(c.out, "\n--- %v ---  steady p50=%.1f MiB, peak=%.1f MiB\n",
			st, res.Memory.Quantile(0.5)/(1<<20), res.Memory.Max()/(1<<20))
		res.Memory.Fprint(c.out)
	}
}

func printSpans(c config, res harness.Result) {
	for i, sp := range res.MigrationSpans {
		fmt.Fprintf(c.out, "# migration %d: start=%.2fs end=%.2fs duration=%.2fs max-latency=%.2fms\n",
			i+1, sp.Start, sp.End, sp.Duration, sp.MaxLatency)
	}
}

// skewExp — a Zipf-skewed key stream under the static assignment vs the
// LoadBalance policy: the policy sheds hot bins from whichever workers drew
// them, without any hand-written plan.
func skewExp(c config) {
	header(c, "skew", "zipf-skewed key-count: static assignment vs load-balance policy")
	wl := harness.Workload{Kind: harness.Zipf, ZipfS: 1.2}
	for _, policy := range []plan.Policy{plan.Static{}, plan.LoadBalance{Hysteresis: 0.1}} {
		res := c.runKeycount(keycount.RunConfig{
			Params: keycount.Params{
				Variant: keycount.HashCount,
				LogBins: 8,
				Domain:  1 << 20,
				Preload: true,
			},
			Config: harness.Config{
				Workers:  c.workers,
				Rate:     200_000,
				Duration: c.dur(8 * time.Second),
				Auto: &plan.AutoOptions{
					Policy:   policy,
					Strategy: plan.Optimized,
					Batch:    8,
				},
			},
			Workload: wl,
		})
		fmt.Fprintf(c.out, "\n--- policy=%s workload=%s ---\n", policy.Name(), wl)
		res.Timeline.Fprint(c.out)
		res.FprintAdaptive(c.out)
	}
}

// autoscaleExp — the adaptive loop end to end: a hot key set carrying most
// of the traffic jumps between workers mid-run (every shift lands all hot
// bins on one worker's residue class), and the AutoController detects each
// shift from the metered load and restores the latency timeline with an
// Optimized plan — no scripted migrations anywhere.
func autoscaleExp(c config) {
	header(c, "autoscale", "hot-key shift vs AutoController (load-balance, optimized plans)")
	const (
		logBins = 8
		domain  = 1 << 20
	)
	duration := c.dur(12 * time.Second)
	shiftEvery := int64(c.dur(4*time.Second) / time.Millisecond)
	procs := 1
	if c.cluster != nil {
		procs = len(c.cluster.Hosts)
	}
	total := c.workers * procs
	// In-process exchange sustains 300k records/s with single-digit-ms p99,
	// but the TCP mesh adds several ms of baseline p99 at that rate —
	// leaving no headroom under the injected hotspot. Clustered runs scale
	// the offered load to 8k records/s per worker (evenly divisible across
	// the inputs) so the settled latency reflects the controller, not the
	// wire.
	rate := 300_000
	if procs > 1 && rate > 8_000*total {
		rate = 8_000 * total
	}
	binSpan := uint64(domain >> logBins)
	// The strided hot set only stays in a fixed residue class of the bin
	// space when the stride divides the (power-of-two) domain, so the stride
	// factor is the largest power of two not above the cluster-wide worker
	// count. Under the initial round-robin assignment the hot bins then land
	// on total/gcd(stride, total) workers: exactly one when the total is a
	// power of two, a small subset otherwise.
	strideWorkers := 1
	for strideWorkers*2 <= total {
		strideWorkers *= 2
	}
	hotWorkers := total / gcd(strideWorkers, total)
	if hotWorkers != 1 {
		fmt.Fprintf(c.out, "(hot set lands on %d of %d workers: a single hot worker needs a power-of-two total)\n",
			hotWorkers, total)
	}
	// Simulated per-record service time, derived so each worker drawing a
	// share of the hot set runs at ~95% of its nominal serial capacity
	// while a balanced spread keeps every worker well under half of it. In
	// practice sleep overshoot and scheduler overhead push an almost-
	// saturated worker well past 1 — the hotspot wedges the static
	// assignment on any loaded host — but the nominal margin must stay
	// under 1: migration steps pace on the frontier, each step of a plan
	// waits out one full frontier lag, and a hot worker running far past
	// capacity digs a backlog during the detection window that compresses
	// the load signal (a saturated worker's measured rate caps at its
	// capacity) until rebalances no longer land, and the backlog outruns
	// the control loop for good. The cap keeps the balanced assignment
	// unsaturated when the hot set cannot be concentrated (hotWorkers ==
	// total).
	serviceNanos := 950_000_000 * int64(hotWorkers) / int64(rate*85/100)
	if limit := 500_000_000 * int64(total) / int64(rate); serviceNanos > limit {
		serviceNanos = limit
	}
	// Strategy: single-process runs use the paper's optimized interleaving
	// (smallest per-step disturbance). Cluster runs trade that smoothness
	// for recovery speed: every plan step paces on the frontier, so each
	// step waits out one full frontier lag — and Optimized's one-transfer-
	// per-worker-per-step constraint forces as many steps as the hottest
	// worker has bins to shed, which under a badly concentrated hot set
	// (an earlier rebalance can stack the next phase's hot bins on fewer
	// workers than round-robin would) turns a rebalance into seconds of
	// paced steps while the backlog it is chasing compounds. A single wide
	// batched step lands the whole correction in one frontier lag.
	strategy, batch := plan.Optimized, 8
	if procs > 1 {
		strategy, batch = plan.Batched, 256
	}
	// The imbalance signal is bounded both ways in cluster runs. Below: the
	// balanced steady state tops out near 1.4x the mean (16 hot bins over
	// 12 workers leaves some worker two), and mesh records arrive in
	// stall-then-burst waves, so short windows read far off that — a tight
	// band has the controller rebalancing for ever, each small migration's
	// stall seeding the next window's phantom imbalance. Above: once a hot
	// worker saturates, its measured rate is capped at its capacity, so a
	// genuine overload never reads much past ~2x the mean no matter how
	// large the offered excess — a band at or above 1.0 stops a rebalance
	// half-done. 0.8 sits between the two regimes; the longer cluster
	// sampling window keeps steady-state noise inside it, and the short
	// cooldown below lets a genuine recovery refine itself across
	// consecutive windows as the draining backlog de-compresses the
	// signal.
	hysteresis, sampleEvery := 0.25, 125
	cost := plan.DefaultCostModel()
	if procs > 1 {
		hysteresis, sampleEvery = 0.8, 375
		// Credit projected gains only as far as the load shape has held
		// still. Steady-state noise crowns a different worker almost every
		// window, so a phantom imbalance earns a one-window horizon and
		// cannot repay moving tens of record-heavy bins — while a genuine
		// hot-set shift saturates its victim for the whole window, whose
		// recovery repays the move even on that one-window credit.
		cost.CapToStability = true
		// Price migrations at their cluster cost: bin state crosses TCP
		// rather than a pointer swap, and a migration step stalls the
		// whole mesh for ~a frontier lag, not one epoch. At these prices
		// the small phantom-imbalance moves that survive the hysteresis
		// band become declines (their projected gain is a few ms), while
		// a genuine hot-set recovery — a saturated worker's whole window
		// — repays hundreds of ms and still clears easily.
		cost.MigrateNanosPerRec = 1000
		cost.StallNanos = 10_000_000
	}
	wl := harness.Workload{
		Kind:        harness.HotShift,
		HotFraction: 0.85,
		HotKeys:     16,
		// One residue class of the bin space: under the dense key-count hash
		// every hot key lands in a bin of the hot workers.
		HotStride:  binSpan * uint64(strideWorkers),
		ShiftEvery: shiftEvery,
	}
	for _, policy := range []plan.Policy{plan.Static{}, plan.LoadBalance{Hysteresis: hysteresis}} {
		res := c.runKeycount(keycount.RunConfig{
			Params: keycount.Params{
				Variant:      keycount.KeyCount,
				LogBins:      logBins,
				Domain:       domain,
				Preload:      true,
				ServiceNanos: serviceNanos,
			},
			Config: harness.Config{
				Workers:  c.workers,
				Rate:     rate,
				Duration: duration,
				Auto: &plan.AutoOptions{
					Policy:   policy,
					Strategy: strategy,
					Batch:    batch,
					// Sampling trades detection delay against window fidelity:
					// the sooner a shift is detected, the smaller the backlog
					// the migration must pace through, but a window much
					// shorter than the mesh's stall-burst cadence reads mostly
					// noise. In-process runs can afford 125 ms windows; cluster
					// runs triple that so one window averages over several
					// bursts (see the hysteresis note above).
					SampleEvery: sampleEvery,
					// Cool down briefly relative to the window: plans land in
					// one step, so their disturbance is gone well within the
					// next window — while a long cooldown is actively harmful
					// when a sampling window straddles a hot-set shift: the
					// mostly-pre-shift window yields a token plan, and the
					// cooldown then holds the real correction until the
					// backlog has compressed the load signal.
					Cooldown: sampleEvery / 3,
					// Gate plans on profitability: chasing a hot set that is
					// about to rotate again would pay migration cost for no
					// recovered imbalance.
					Cost: cost,
				},
			},
			Workload: wl,
		})
		fmt.Fprintf(c.out, "\n--- policy=%s workload=%s ---\n", policy.Name(), wl)
		res.Timeline.Fprint(c.out)
		res.FprintAdaptive(c.out)
		// Per-phase p99: the peak right after each hot-set shift vs where the
		// controller settled it by the end of the phase.
		phase := float64(shiftEvery) / 1000
		for p := 0; p*int(phase*1000) < int(duration/time.Millisecond); p++ {
			from, to := float64(p)*phase, float64(p+1)*phase
			peak, settled := phaseP99(res, from, to)
			fmt.Fprintf(c.out, "# phase %d [%.0fs-%.0fs): peak p99=%.2fms settled p99=%.2fms\n",
				p+1, from, to, peak, settled)
		}
	}
}

// recoveryExp — the failure half of the migration story: the same
// frontier-aligned stall that moves bins between workers can move them to
// disk, so a checkpoint's latency cost lines up against a migration's, and
// a crash costs one restore plus the replay since the last checkpoint.
// Three runs on the same keycount configuration: (a) the migration
// baseline, (b) a checkpointing run reporting each checkpoint's stall and
// volume, (c) a simulated crash — the run is cut at 60% of its duration,
// then recovered from its newest on-disk checkpoint and driven to the
// original end, reporting restore cost and the post-resume catch-up spike.
func recoveryExp(c config) {
	header(c, "recovery", "checkpoint stall and recovery latency vs migration latency (key-count)")
	if c.cluster != nil {
		// The crash simulation drives one process's run in two phases; the
		// cluster gauntlet (scripts/cluster.sh recovery) covers the real
		// multi-process kill. Every process skips identically.
		fmt.Fprintln(c.out, "# skipped in cluster mode: see scripts/cluster.sh recovery for the multi-process kill")
		return
	}
	dir, err := os.MkdirTemp("", "megaphone-recovery-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer os.RemoveAll(dir)

	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 8,
			Domain:  1 << 20,
			Preload: true,
		},
		Config: harness.Config{
			Workers:   c.workers,
			Rate:      200_000,
			Duration:  c.dur(8 * time.Second),
			Strategy:  plan.AllAtOnce,
			MigrateAt: c.dur(4 * time.Second),
		},
		Extras: harness.Extras{MigrateTwo: false},
	}

	mig := c.runKeycount(base)
	fmt.Fprintf(c.out, "%-28s %14s %12s\n", "event", "max-latency[ms]", "detail")
	for _, sp := range mig.MigrationSpans {
		fmt.Fprintf(c.out, "%-28s %14.2f %12s\n", "migration (all-at-once)", sp.MaxLatency,
			fmt.Sprintf("%.2fs", sp.Duration))
	}

	ck := base
	ck.MigrateAt = 0
	ck.CheckpointDir = filepath.Join(dir, "steady")
	ck.CheckpointEvery = c.dur(2 * time.Second)
	res := c.runKeycount(ck)
	for _, st := range res.Checkpoints {
		at := float64(st.Epoch) * time.Millisecond.Seconds()
		stall := res.Timeline.MaxOver(at, at+0.5)
		fmt.Fprintf(c.out, "%-28s %14.2f %12s\n", fmt.Sprintf("checkpoint @%.1fs", at), stall,
			fmt.Sprintf("%d bins, %.1f MiB, write %.0fms", st.Bins, float64(st.Bytes)/(1<<20), st.Write*1e3))
	}

	// Crash simulation: run phase 1 for 60% of the duration (checkpointing),
	// abandon its tail state, and recover a fresh execution from disk.
	crash := ck
	crash.CheckpointDir = filepath.Join(dir, "crash")
	crash.Duration = base.Duration * 3 / 5
	c.runKeycount(crash)

	rec := ck
	rec.CheckpointDir = crash.CheckpointDir
	rec.Duration = base.Duration // original total: the recovered run finishes the schedule
	rec.Recover = true
	start := time.Now()
	recRes := c.runKeycount(rec)
	// A recovered run's timeline starts at its own wall clock: the restore
	// epoch completes at ~0s, so the post-resume catch-up spike lives in
	// the first second of the timeline, not at the epoch's absolute time.
	fmt.Fprintf(c.out, "%-28s %14.2f %12s\n", "recovery catch-up", recRes.Timeline.MaxOver(0, 1.0),
		fmt.Sprintf("restore %.0fms, resumed at epoch %d, total %.2fs",
			recRes.RestoreSeconds*1e3, recRes.RestoreEpoch, time.Since(start).Seconds()))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// phaseP99 returns the peak p99 over the window [from, to) and the median
// p99 of its last quarter (where the controller should have settled).
// Timeline windows in which no epoch completed report p99=0 — those are
// frontier stalls, not zero latency, so they are excluded from the median;
// if the whole tail is stalled the phase never settled and the peak is
// reported instead.
func phaseP99(res harness.Result, from, to float64) (peak, settled float64) {
	var tail []float64
	for _, s := range res.Timeline.Samples() {
		if s.At < from || s.At >= to {
			continue
		}
		if s.P99 > peak {
			peak = s.P99
		}
		if s.At >= to-(to-from)/4 && s.P99 > 0 {
			tail = append(tail, s.P99)
		}
	}
	sort.Float64s(tail)
	if len(tail) > 0 {
		settled = tail[len(tail)/2]
	} else {
		settled = peak
	}
	return peak, settled
}
