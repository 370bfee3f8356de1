package harness

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/plan"
)

// RunFlags registers on fs the run options cmd/keycount and cmd/nexmark
// share: -workers -rate -duration -strategy -batch -migrate-at -auto
// -hysteresis -cost -hosts -process -checkpoint-dir -checkpoint-every
// -recover, with rate as -rate's default. The returned function, called
// after fs.Parse, validates them and returns the Config they describe.
func RunFlags(fs *flag.FlagSet, rate int) func() (Config, error) {
	var (
		workers   = fs.Int("workers", 4, "number of workers")
		perSec    = fs.Int("rate", rate, "records per second")
		duration  = fs.Duration("duration", 10*time.Second, "run length")
		strategy  = fs.String("strategy", "batched", "all-at-once, fluid, batched, optimized")
		batch     = fs.Int("batch", 16, "bins per step")
		migrateAt = fs.Duration("migrate-at", 4*time.Second, "first migration time (0 disables)")
		auto      = fs.String("auto", "", "auto-controller policy (load-balance or static); replaces -migrate-at plans")
		hyst      = fs.Float64("hysteresis", 0.25, "auto-controller rebalance trigger above mean load")
		cost      = fs.Bool("cost", true, "with -auto, gate migrations on the cost model (decline unprofitable plans)")
		hosts     = fs.String("hosts", "", "comma-separated host:port list, one per process; enables the multi-process runtime (every process runs -workers workers)")
		proc      = fs.Int("process", 0, "this process's index into -hosts")
		ckptDir   = fs.String("checkpoint-dir", "", "enable epoch-aligned checkpoints into this directory")
		ckptEvery = fs.Duration("checkpoint-every", time.Second, "checkpoint cadence (with -checkpoint-dir)")
		recov     = fs.Bool("recover", false, "resume from the newest complete checkpoint in -checkpoint-dir")
	)
	return func() (Config, error) {
		switch {
		case *workers <= 0:
			return Config{}, fmt.Errorf("-workers %d: want at least 1", *workers)
		case *perSec < 0:
			return Config{}, fmt.Errorf("-rate %d: want 0 (an idle run) or more", *perSec)
		case *duration <= 0:
			return Config{}, fmt.Errorf("-duration %v: want a positive run length", *duration)
		}
		st, err := plan.StrategyByName(*strategy)
		if err != nil {
			return Config{}, err
		}
		cfg := Config{
			Workers:         *workers,
			Rate:            *perSec,
			Duration:        *duration,
			Strategy:        st,
			Batch:           *batch,
			MigrateAt:       *migrateAt,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			Recover:         *recov,
		}
		if *auto != "" {
			pol, err := plan.PolicyByName(*auto, *hyst)
			if err != nil {
				return Config{}, err
			}
			cfg.Auto = &plan.AutoOptions{Policy: pol, Strategy: st, Batch: *batch}
			if *cost {
				cfg.Auto.Cost = plan.DefaultCostModel()
			}
		}
		if *hosts != "" {
			cfg.Cluster = &dataflow.ClusterSpec{Hosts: strings.Split(*hosts, ","), Process: *proc}
		}
		return cfg, nil
	}
}
