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

	"megaphone/internal/harness"
	"megaphone/internal/nexmark"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nexmark", flag.ContinueOnError)
	runConfig := harness.RunFlags(fs, 100000)
	// nexmark's own wording of the shared flags' help.
	for name, usage := range map[string]string{
		"rate":       "events per second",
		"strategy":   "migration strategy: all-at-once, fluid, batched, optimized",
		"batch":      "bins per step for batched/optimized",
		"migrate-at": "when to start the first migration (0 disables)",
	} {
		fs.Lookup(name).Usage = usage
	}
	var (
		query    = fs.String("query", "q3", "query to run (q1..q8)")
		impl     = fs.String("impl", "megaphone", "implementation: native or megaphone")
		bins     = fs.Int("bins", 8, "log2 bin count")
		window   = fs.Uint64("window", 60, "window epochs for q5/q7/q8 (time dilation)")
		hotRatio = fs.Uint64("hot-ratio", 0, "1/N of bids hit the hot auction (0 disables skew)")
		hotShift = fs.Uint64("hot-shift-every", 0, "epochs between hot-auction jumps (0 pins it to the newest)")
		dump     = fs.String("dump", "", "write one line per output record to this file (for cross-run output-equivalence checks)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runCfg, err := runConfig()
	if err != nil {
		return err
	}

	var im nexmark.Impl
	switch *impl {
	case "native":
		im = nexmark.Native
	case "megaphone":
		im = nexmark.Megaphone
	default:
		return fmt.Errorf("unknown implementation %q (want native or megaphone)", *impl)
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
		Config: runCfg,
	}
	if im != nexmark.Megaphone {
		// Native queries have no megaphone operators to meter or migrate.
		if cfg.Auto != nil {
			return fmt.Errorf("-auto requires -impl megaphone")
		}
		cfg.MigrateAt = 0
	}
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
		*query, im, cfg.Workers, cfg.Rate, cfg.Duration, cfg.Strategy)
	res, err := nexmark.Run(cfg)
	if err != nil {
		return err
	}
	if finishDump != nil {
		if err := finishDump(); err != nil {
			return err
		}
	}
	res.Fprint(out)
	return nil
}
