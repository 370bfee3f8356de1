package nexmark

import (
	"fmt"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
)

// RunConfig configures a complete open-loop NEXMark run. Every run
// schedules the paper's two migrations (Section 5: "we initially migrate
// half of the keys on half of the workers to the other half ... then
// perform and report a second migration back"); checkpoints need the
// megaphone implementation. Runs use a fixed roster: dynamic membership
// (absent roster slots joining and leaving) is keycount-only for now. The
// membership barrier pauses the workers, inventories every capability hold
// and rebuilds the trackers from it, which needs each operator's holds to
// be bounded and purgeable at a cut epoch. nexmark's windowed operators
// (q5, q7, q8) hold capabilities for every open window with no purge hook,
// so the barrier can neither bound nor reconstruct their progress state.
type RunConfig struct {
	harness.Config
	Query  string
	Params Params
	Gen    GenConfig
}

// Run executes the query open-loop and returns its measurements. In a
// cluster run the measurements are this process's local view.
func Run(cfg RunConfig) (harness.Result, error) {
	cfg.Params.defaults()
	ops, known := queryOps[cfg.Query]
	switch {
	case cfg.Params.LogBins < 1 || cfg.Params.LogBins > core.MaxLogBins:
		return harness.Result{}, fmt.Errorf("nexmark: log2 bin count %d is outside 1..%d", cfg.Params.LogBins, core.MaxLogBins)
	case !known:
		return harness.Result{}, fmt.Errorf("nexmark: unknown query %q (want q1..q8)", cfg.Query)
	case cfg.Params.Impl != Native && cfg.Params.Impl != Megaphone:
		return harness.Result{}, fmt.Errorf("nexmark: unknown implementation %d (want native or megaphone)", int(cfg.Params.Impl))
	}
	if cfg.Params.Impl == Native {
		ops = nil
	}
	return harness.Launch(cfg.Config, harness.Extras{MigrateTwo: true}, harness.Dataflow[Event]{
		Name:    "nexmark",
		LogBins: cfg.Params.LogBins,
		Ops:     ops,
		Parts:   cfg.parts,
	})
}

// parts builds the query, its event generator over the cluster-wide
// worker space, and no bin function: the queries key their operators
// differently, and only membership runs need one.
func (cfg RunConfig) parts(env harness.Env) harness.Parts[Event] {
	p := cfg.Params
	p.Checkpoint, p.Restore, p.Meter = env.Checkpoint, env.Restores, env.Meter
	gen := NewGen(cfg.Gen)
	perEpoch := int(float64(env.Rate) * env.EpochEvery.Seconds())
	return harness.Parts[Event]{
		Build: func(w *dataflow.Worker, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) *dataflow.Probe {
			return BuildQuery(w, cfg.Query, p, ctl, events)
		},
		Gen: func(w int, epoch int64, n int) []Event {
			return gen.Batch(w, env.TotalWorkers, Time(epoch), perEpoch, n)
		},
	}
}
