package nexmark

import (
	"fmt"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// RunConfig configures a complete open-loop NEXMark run.
type RunConfig struct {
	Query  string
	Params Params
	Gen    GenConfig
	// Workers is the number of workers in this process. In a cluster run
	// (Cluster non-nil) every process contributes Workers workers.
	Workers     int
	Rate        int // events per second, cluster-wide
	Duration    time.Duration
	EpochEvery  time.Duration
	ReportEvery time.Duration
	// Strategy/Batch/MigrateAt schedule the paper's two migrations: first
	// to an imbalanced assignment, then back (Section 5: "we initially
	// migrate half of the keys on half of the workers to the other half
	// ... then perform and report a second migration back").
	Strategy  plan.Strategy
	Batch     int
	MigrateAt time.Duration
	Memory    bool
	// Auto, when non-nil, installs a metering AutoController that issues
	// plans from measured load; the scheduled MigrateAt migrations are then
	// ignored. Auto.Meter is filled in by Run.
	Auto *plan.AutoOptions
	// Cluster, when non-nil, runs this process's share of a multi-process
	// execution (see keycount.RunConfig.Cluster; the semantics match).
	Cluster *dataflow.ClusterSpec
	// CheckpointDir/CheckpointEvery/Recover mirror keycount.RunConfig:
	// epoch-aligned checkpoints of every megaphone stage of the query, and
	// recovery from the newest complete checkpoint. Megaphone impl only.
	CheckpointDir   string
	CheckpointEvery time.Duration
	Recover         bool
}

// Run executes the query open-loop and returns its measurements. In a
// cluster run the measurements are this process's local view.
func Run(cfg RunConfig) (harness.Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.EpochEvery <= 0 {
		cfg.EpochEvery = time.Millisecond
	}
	cfg.Params.defaults()

	if cfg.Cluster != nil && cfg.Cluster.Absent != nil {
		// Dynamic membership (absent roster slots joining and leaving) is a
		// keycount-only mode for now: the membership barrier pauses the
		// workers, inventories every capability hold and rebuilds the
		// trackers from it, which needs each operator's holds to be bounded
		// and purgeable at a cut epoch. nexmark's windowed operators (q5, q7,
		// q8) hold capabilities for every open window with no purge hook, so
		// the barrier can neither bound nor reconstruct their progress state.
		return harness.Result{}, fmt.Errorf("nexmark: dynamic membership (absent roster slots) is keycount-only — windowed operators have unbounded, unpurgeable capability holds")
	}
	var mesh *dataflow.Mesh // nil: the single-process case
	procs, proc := 1, 0
	if cfg.Cluster != nil {
		var err error
		if mesh, err = dataflow.JoinMesh(*cfg.Cluster); err != nil {
			return harness.Result{}, err
		}
		procs, proc = mesh.Procs(), mesh.Process()
	}
	totalWorkers := cfg.Workers * procs
	firstWorker := proc * cfg.Workers

	if (cfg.CheckpointDir != "" || cfg.Recover) && cfg.Params.Impl != Megaphone {
		return harness.Result{}, fmt.Errorf("nexmark: checkpointing requires the megaphone implementation")
	}
	ckpt, duration, err := harness.PlanCheckpoints("nexmark", cfg.CheckpointDir, cfg.CheckpointEvery,
		cfg.Recover, cfg.Params.Transfer, totalWorkers, firstWorker, cfg.Workers, cfg.EpochEvery, cfg.Duration)
	if err != nil {
		return harness.Result{}, err
	}
	cfg.Duration = duration
	cfg.Params.Checkpoint = ckpt.Config
	cfg.Params.Restore = ckpt.Restores

	var meter *core.LoadMeter
	if cfg.Auto != nil {
		meter = core.NewLoadMeter(totalWorkers, cfg.Params.LogBins)
		cfg.Params.Meter = meter
		cfg.Auto.Meter = meter
		if mesh != nil {
			// Cluster-wide control plane, as in keycount.Run: telemetry over
			// the mesh, one elected policy driver.
			cfg.Auto.Cluster = &plan.ClusterOptions{
				Bus:            mesh,
				Procs:          procs,
				Proc:           proc,
				WorkersPerProc: cfg.Workers,
				Liveness:       plan.Liveness{TickEvery: cfg.EpochEvery},
				Logf:           cfg.Cluster.Logf,
			}
		}
	}

	exec := dataflow.NewExecution(dataflow.Config{Workers: cfg.Workers, Mesh: mesh})
	var dataIns []*dataflow.InputHandle[Event]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, events := dataflow.NewInput[Event](w, "events")
		dataIns = append(dataIns, in)
		p := BuildQuery(w, cfg.Query, cfg.Params, ctlStream, events)
		if w.Index() == firstWorker {
			probe = p
		}
	})
	exec.Start()

	bins := 1 << uint(cfg.Params.LogBins)
	ctl, auto := harness.NewDriver(cfg.Auto, ctlIns, probe, bins, totalWorkers, ckpt.InitialAssignment())

	var migrations []harness.Migration
	if cfg.Auto == nil && cfg.MigrateAt > 0 {
		initial := plan.Initial(bins, totalWorkers)
		var firstHalf []int
		for i := 0; i < (totalWorkers+1)/2; i++ {
			firstHalf = append(firstHalf, i)
		}
		imbalanced := plan.Rebalance(bins, firstHalf)
		epoch := int64(cfg.MigrateAt / cfg.EpochEvery)
		total := int64(cfg.Duration / cfg.EpochEvery)
		migrations = append(migrations,
			harness.Migration{AtEpoch: epoch, Plan: plan.Build(cfg.Strategy, initial, imbalanced, cfg.Batch)},
			harness.Migration{AtEpoch: epoch + (total-epoch)/2, Plan: plan.Build(cfg.Strategy, imbalanced, initial, cfg.Batch)},
		)
		migrations = ckpt.FilterMigrations(migrations)
	}

	gen := NewGen(cfg.Gen)
	perEpoch := int(float64(cfg.Rate) * cfg.EpochEvery.Seconds())
	peers := totalWorkers
	genFn := func(w int, epoch int64, n int) []Event {
		return gen.Batch(w, peers, Time(epoch), perEpoch, n)
	}

	res := harness.Run(exec, dataIns, ctl, probe, genFn, harness.Options{
		Rate:            cfg.Rate,
		EpochEvery:      cfg.EpochEvery,
		Duration:        cfg.Duration,
		ReportEvery:     cfg.ReportEvery,
		SampleMemory:    cfg.Memory,
		Migrations:      migrations,
		TotalInputs:     totalWorkers,
		FirstInput:      firstWorker,
		CheckpointEvery: ckpt.Every,
		StartEpoch:      ckpt.StartEpoch,
	})
	res.FinishAdaptive(auto, meter)
	ckpt.Finish(&res)
	return res, nil
}
