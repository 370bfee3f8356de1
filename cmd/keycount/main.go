// Command keycount runs the counting micro-benchmark of Sections 5.2-5.3:
// a stream of identifiers whose per-key counts are the operator state, with
// configurable bins, domain, rate, key distribution and migration strategy.
// It prints the latency timeline, overall percentiles and (optionally) CCDF
// rows and the memory series.
//
// Migrations come either from the scripted schedule (-migrate-at) or, with
// -auto, from a policy-driven AutoController that meters per-bin load and
// issues plans itself (try -workload zipf or -workload hotshift:0.85,16,2000
// to give it something to react to).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/plan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("keycount", flag.ContinueOnError)
	var (
		variant   = fs.String("variant", "hash", "hash, key, native-hash or native-key")
		workers   = fs.Int("workers", 4, "number of workers")
		rate      = fs.Int("rate", 200000, "records per second")
		duration  = fs.Duration("duration", 10*time.Second, "run length")
		bins      = fs.Int("bins", 8, "log2 bin count")
		domain    = fs.Int64("domain", 1<<20, "number of distinct keys (power of two)")
		strategy  = fs.String("strategy", "batched", "all-at-once, fluid, batched, optimized")
		batch     = fs.Int("batch", 16, "bins per step")
		migrateAt = fs.Duration("migrate-at", 4*time.Second, "first migration time (0 disables)")
		workload  = fs.String("workload", "uniform", "key distribution: uniform, zipf[:S], hotshift[:FRAC,KEYS,EVERY[,STRIDE]]")
		auto      = fs.String("auto", "", "auto-controller policy (load-balance or static); replaces -migrate-at plans")
		hyst      = fs.Float64("hysteresis", 0.25, "auto-controller rebalance trigger above mean load")
		cost      = fs.Bool("cost", true, "with -auto, gate migrations on the cost model (decline unprofitable plans)")
		service   = fs.Duration("service", 0, "simulated per-record service time (0 disables)")
		ccdf      = fs.Bool("ccdf", false, "print per-record latency CCDF")
		memory    = fs.Bool("memory", false, "print heap series")
		preload   = fs.Bool("preload", true, "pre-create per-bin state")
		hosts     = fs.String("hosts", "", "comma-separated host:port list, one per process; enables the multi-process runtime (every process runs -workers workers)")
		proc      = fs.Int("process", 0, "this process's index into -hosts")
		dump      = fs.String("dump", "", "write one line per output record to this file (for cross-run output-equivalence checks)")

		ckptDir   = fs.String("checkpoint-dir", "", "enable epoch-aligned checkpoints into this directory")
		ckptEvery = fs.Duration("checkpoint-every", time.Second, "checkpoint cadence (with -checkpoint-dir)")
		recov     = fs.Bool("recover", false, "resume from the newest complete checkpoint in -checkpoint-dir")

		membership = fs.Bool("membership", false, "enable dynamic membership (join, drain-leave, crash-leave); requires -hosts and -checkpoint-dir")
		absent     = fs.String("absent", "", "comma-separated roster indexes that start absent (with -membership); a process whose own index is listed is a late joiner")
		leaveAt    = fs.Int64("leave-at", 0, "epoch at which this process requests drain-leave (with -membership)")
		memSlack   = fs.Int("membership-slack", 1, "multiplier on the membership suspicion/death/margin windows (with -membership); raise it on slow or loaded machines")

		scaleOut     = fs.Uint64("scale-out-above", 0, "with -membership -auto: mean records per live worker per sampling window above which a registered standby is admitted (0 disables scale-out)")
		scaleIn      = fs.Uint64("scale-in-below", 0, "with -membership -auto: mean records per live worker per sampling window below which the coldest member is drain-left (0 disables scale-in)")
		scaleSustain = fs.Int("scale-sustain", 3, "with -membership -auto: consecutive windows a scale signal must persist before the leader acts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *workers <= 0:
		return fmt.Errorf("-workers %d: want at least 1", *workers)
	case *rate < 0:
		return fmt.Errorf("-rate %d: want 0 (an idle run) or more", *rate)
	case *duration <= 0:
		return fmt.Errorf("-duration %v: want a positive run length", *duration)
	}
	var v keycount.Variant
	switch *variant {
	case "hash":
		v = keycount.HashCount
	case "key":
		v = keycount.KeyCount
	case "native-hash":
		v = keycount.NativeHash
	case "native-key":
		v = keycount.NativeKey
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	st, err := plan.StrategyByName(*strategy)
	if err != nil {
		return err
	}
	wl, err := harness.ParseWorkload(*workload)
	if err != nil {
		return err
	}
	if v == keycount.NativeHash || v == keycount.NativeKey {
		// The native variants have no megaphone operator behind them: no
		// meter for -auto to read and no fold for -service to throttle.
		if *auto != "" {
			return fmt.Errorf("-auto requires a migrateable variant (hash or key), not %v", v)
		}
		if *service != 0 {
			return fmt.Errorf("-service requires a migrateable variant (hash or key), not %v", v)
		}
	}

	cfg := keycount.RunConfig{
		Params: keycount.Params{
			Variant:      v,
			LogBins:      *bins,
			Domain:       *domain,
			Preload:      *preload,
			ServiceNanos: service.Nanoseconds(),
		},
		Config: harness.Config{
			Workers:   *workers,
			Rate:      *rate,
			Duration:  *duration,
			Strategy:  st,
			Batch:     *batch,
			MigrateAt: *migrateAt,
		},
		Extras:   harness.Extras{MigrateTwo: true, Memory: *memory},
		Workload: wl,
	}
	if *auto != "" {
		pol, err := plan.PolicyByName(*auto, *hyst)
		if err != nil {
			return err
		}
		cfg.Auto = &plan.AutoOptions{Policy: pol, Strategy: st, Batch: *batch}
		if *cost {
			cfg.Auto.Cost = plan.DefaultCostModel()
		}
	}
	if *hosts != "" {
		cfg.Cluster = &dataflow.ClusterSpec{Hosts: strings.Split(*hosts, ","), Process: *proc}
	}
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.Recover = *recov
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *membership {
		cfg.Membership = true
		cfg.LeaveAt = *leaveAt
		cfg.MembershipSlack = *memSlack
		cfg.ScaleOutAbove = *scaleOut
		cfg.ScaleInBelow = *scaleIn
		cfg.ScaleSustain = *scaleSustain
		if !explicit["migrate-at"] {
			// The benchmark's default migration schedule is for plain runs;
			// in membership mode a scripted migration runs only when asked
			// for (it rides the membership controller's schedule broadcast).
			cfg.MigrateAt = 0
			cfg.MigrateTwo = false
		}
		if cfg.Auto == nil && (*scaleOut != 0 || *scaleIn != 0) {
			return fmt.Errorf("-scale-out-above/-scale-in-below read the autoscaler's load windows; add -auto")
		}
		if cfg.Cluster == nil {
			return fmt.Errorf("-membership requires -hosts")
		}
		cfg.Cluster.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		if *absent != "" {
			abs := make([]bool, len(cfg.Cluster.Hosts))
			for _, s := range strings.Split(*absent, ",") {
				i, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || i < 0 || i >= len(abs) {
					return fmt.Errorf("-absent: bad roster index %q", s)
				}
				abs[i] = true
			}
			cfg.Cluster.Absent = abs
		}
	} else if *absent != "" || *leaveAt != 0 {
		return fmt.Errorf("-absent and -leave-at require -membership")
	} else if *scaleOut != 0 || *scaleIn != 0 || explicit["scale-sustain"] {
		return fmt.Errorf("-scale-out-above, -scale-in-below and -scale-sustain require -membership with -auto")
	}
	var finishDump func() error
	if *dump != "" {
		sink, finish, err := harness.LineSink(*dump)
		if err != nil {
			return err
		}
		cfg.Sink = sink
		finishDump = finish
	}

	res, err := keycount.Run(cfg)
	if err != nil {
		return err
	}
	if finishDump != nil {
		if err := finishDump(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "# keycount %v, %d workers, rate=%d, domain=%d, bins=2^%d, strategy=%v, workload=%v\n",
		v, *workers, *rate, *domain, *bins, st, wl)
	res.Fprint(out)
	if *ccdf {
		fmt.Fprintln(out, "# CCDF: latency[ms] fraction-greater")
		for _, p := range res.Hist.CCDF() {
			fmt.Fprintf(out, "%12.3f %12.6g\n", float64(p.Value)/1e6, p.Fraction)
		}
	}
	if *memory {
		res.Memory.Fprint(out)
	}
	return nil
}
