// Command nexmark runs one NEXMark query open-loop, optionally migrating
// its state mid-run, and prints the latency timeline (the rows behind
// Figures 5-12 of the Megaphone paper).
//
// Example:
//
//	nexmark -query q4 -impl megaphone -workers 4 -rate 200000 \
//	        -duration 20s -migrate-at 8s -strategy batched -bins 8
//
// With -auto load-balance the migrations come from a metering
// AutoController instead of the scripted schedule; combine with -hot-ratio
// and -hot-shift-every to inject a moving auction hotspot for it to chase.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nexmark", flag.ContinueOnError)
	var (
		query     = fs.String("query", "q3", "query to run (q1..q8)")
		impl      = fs.String("impl", "megaphone", "implementation: native or megaphone")
		workers   = fs.Int("workers", 4, "number of workers")
		rate      = fs.Int("rate", 100000, "events per second")
		duration  = fs.Duration("duration", 10*time.Second, "run length")
		bins      = fs.Int("bins", 8, "log2 bin count")
		strategy  = fs.String("strategy", "batched", "migration strategy: all-at-once, fluid, batched, optimized")
		batch     = fs.Int("batch", 16, "bins per step for batched/optimized")
		migrateAt = fs.Duration("migrate-at", 4*time.Second, "when to start the first migration (0 disables)")
		window    = fs.Uint64("window", 60, "window epochs for q5/q7/q8 (time dilation)")
		hotRatio  = fs.Uint64("hot-ratio", 0, "1/N of bids hit the hot auction (0 disables skew)")
		hotShift  = fs.Uint64("hot-shift-every", 0, "epochs between hot-auction jumps (0 pins it to the newest)")
		auto      = fs.String("auto", "", "auto-controller policy (load-balance or static); replaces -migrate-at plans")
		hyst      = fs.Float64("hysteresis", 0.25, "auto-controller rebalance trigger above mean load")
		cost      = fs.Bool("cost", true, "with -auto, gate migrations on the cost model (decline unprofitable plans)")
		hosts     = fs.String("hosts", "", "comma-separated host:port list, one per process; enables the multi-process runtime (every process runs -workers workers)")
		proc      = fs.Int("process", 0, "this process's index into -hosts")
		dump      = fs.String("dump", "", "write one line per output record to this file (for cross-run output-equivalence checks)")

		ckptDir   = fs.String("checkpoint-dir", "", "enable epoch-aligned checkpoints into this directory")
		ckptEvery = fs.Duration("checkpoint-every", time.Second, "checkpoint cadence (with -checkpoint-dir)")
		recov     = fs.Bool("recover", false, "resume from the newest complete checkpoint in -checkpoint-dir")

		membership = fs.Bool("membership", false, "not supported for nexmark (see cmd/keycount)")
		absent     = fs.String("absent", "", "not supported for nexmark (see cmd/keycount)")
		leaveAt    = fs.Int64("leave-at", 0, "not supported for nexmark (see cmd/keycount)")
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
	if *membership || *absent != "" || *leaveAt != 0 {
		// Reject at parse time, before the mesh is joined: a cluster whose
		// processes disagree on this would otherwise hang in the handshake.
		return fmt.Errorf("nexmark: dynamic membership is keycount-only for now — the windowed operators (q5/q7/q8) keep unboundedly many in-flight window capabilities and have no purge hooks, so the membership barrier cannot bound or rebuild their progress holds; use cmd/keycount -membership")
	}

	st, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	im := nexmark.Megaphone
	if *impl == "native" {
		im = nexmark.Native
	}

	cfg := nexmark.RunConfig{
		Query: *query,
		Params: nexmark.Params{
			Impl:         im,
			LogBins:      *bins,
			WindowEpochs: nexmark.Time(*window),
		},
		Gen: nexmark.GenConfig{
			HotRatio:      *hotRatio,
			HotShiftEvery: nexmark.Time(*hotShift),
		},
		Workers:  *workers,
		Rate:     *rate,
		Duration: *duration,
		Strategy: st,
		Batch:    *batch,
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
	if im == nexmark.Megaphone {
		cfg.MigrateAt = *migrateAt
	} else if cfg.Auto != nil {
		// Native queries have no megaphone operators to meter or migrate.
		return fmt.Errorf("-auto requires -impl megaphone")
	}
	if *hosts != "" {
		cfg.Cluster = &dataflow.ClusterSpec{Hosts: strings.Split(*hosts, ","), Process: *proc}
	}
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.Recover = *recov
	var finishDump func() error
	if *dump != "" {
		write, finish, err := harness.LineSink(*dump)
		if err != nil {
			return err
		}
		// One "<epoch> <record>" line per output record. Line-granular
		// interleaving across workers is fine: each (epoch, key) of a
		// running aggregate is produced by exactly one worker's batch, so
		// "the last line per (epoch, key)" — the deterministic unit of
		// cross-run comparison (see scripts/cluster.sh) — is preserved.
		cfg.Params.Sink = func(t nexmark.Time, lines []string) {
			for _, line := range lines {
				write(fmt.Sprintf("%d %s", uint64(t), line))
			}
		}
		finishDump = finish
	}

	fmt.Fprintf(out, "# nexmark %s (%s), %d workers, %d ev/s, %v, strategy=%v\n",
		*query, im, *workers, *rate, *duration, st)
	res, err := nexmark.Run(cfg)
	if err != nil {
		return err
	}
	if finishDump != nil {
		if err := finishDump(); err != nil {
			return err
		}
	}
	res.Timeline.Fprint(out)
	for i, sp := range res.MigrationSpans {
		fmt.Fprintf(out, "# migration %d: start=%.2fs end=%.2fs duration=%.2fs max-latency=%.2fms\n",
			i+1, sp.Start, sp.End, sp.Duration, sp.MaxLatency)
	}
	res.FprintAdaptive(out)
	if res.RestoreEpoch > 0 {
		fmt.Fprintf(out, "# recovered from checkpoint epoch %d (load %.3fs)\n", res.RestoreEpoch, res.RestoreSeconds)
	}
	for _, ck := range res.Checkpoints {
		fmt.Fprintf(out, "# checkpoint epoch=%d bins=%d bytes=%d write=%.1fms\n",
			ck.Epoch, ck.Bins, ck.Bytes, ck.Write*1e3)
	}
	fmt.Fprintf(out, "# records=%d epochs=%d overall: %s\n", res.Records, res.Epochs, res.Hist.Summary())
	return nil
}

func parseStrategy(s string) (plan.Strategy, error) {
	switch s {
	case "all-at-once":
		return plan.AllAtOnce, nil
	case "fluid":
		return plan.Fluid, nil
	case "batched":
		return plan.Batched, nil
	case "optimized":
		return plan.Optimized, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}
