package keycount

import (
	"fmt"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// RunConfig configures a complete open-loop key-count run.
type RunConfig struct {
	Params
	// Workers is the number of workers in this process. In a cluster run
	// (Cluster non-nil) every process contributes Workers workers and the
	// execution spans Workers * len(Cluster.Hosts) workers total.
	Workers     int
	Rate        int           // records per second, cluster-wide
	Duration    time.Duration // total run
	EpochEvery  time.Duration // epoch granularity (default 1ms)
	ReportEvery time.Duration
	// Strategy and Batch configure the migration executed mid-run (at half
	// of the run, rebalancing 25% of the bins as in Section 5: half the
	// bins of half the workers move to the other half). MigrateAt <= 0
	// disables migration.
	Strategy   plan.Strategy
	Batch      int
	MigrateAt  time.Duration
	MigrateTwo bool // also run the re-balancing second migration
	// MigrateTwoAt pins the second migration's epoch explicitly; zero keeps
	// the default midpoint between MigrateAt and the end of the run.
	MigrateTwoAt time.Duration
	Memory       bool
	// Workload selects the key distribution (zero value = the paper's
	// uniform draw).
	Workload harness.Workload
	// Auto, when non-nil, installs a metering AutoController that issues
	// plans from measured load instead of the scheduled MigrateAt
	// migrations (which are then ignored). Auto.Meter is filled in by Run.
	Auto *plan.AutoOptions
	// Cluster, when non-nil, runs this process's share of a multi-process
	// execution: the process joins the mesh, runs Workers of the global
	// worker space, and injects its workers' share of the (deterministic)
	// input stream. Every process must be started with the same RunConfig
	// apart from Cluster.Process.
	Cluster *dataflow.ClusterSpec
	// CheckpointDir enables epoch-aligned checkpoints into this directory
	// (shared by every process of a local cluster); CheckpointEvery is the
	// cadence (default 1s). Requires a migrateable variant and a
	// serializing transfer codec.
	CheckpointDir   string
	CheckpointEvery time.Duration
	// Recover loads the newest complete checkpoint from CheckpointDir
	// before starting and resumes the (deterministic) input stream at its
	// epoch; Duration still names the original total run length, so the
	// recovered run ends at the same epoch an uninterrupted run would.
	Recover bool
	// Sink, when non-nil, receives one "key:count" line per output record,
	// for output-equivalence checks across runs. It is called from worker
	// goroutines and must be safe for concurrent use.
	Sink func(line string)
	// Membership enables the dynamic-membership control plane: the roster
	// may grow (Cluster.Absent slots joining mid-run) and shrink (drain- and
	// crash-leave) while the dataflow keeps running. Requires Cluster and
	// CheckpointDir; incompatible with Recover (crash recovery is per-member,
	// inside the run). Scripted migrations ride the membership schedule
	// broadcast, Preload consults the live-roster initial assignment, and
	// Auto contributes only its meter, sampling cadence and cost model: the
	// membership controller runs the load telemetry itself and its windows
	// drive join/leave (see ScaleOutAbove/ScaleInBelow); no policy runs.
	Membership bool
	// LeaveAt makes this process request drain-leave once its drive loop
	// passes that epoch (with Membership).
	LeaveAt int64
	// MembershipSlack multiplies the membership controller's suspicion,
	// death and margin windows (plan.MembershipOptions.Slack): raise it
	// where scheduling jitter is large relative to the epoch interval.
	MembershipSlack int
	// CrashAt makes this process abandon the run abruptly at that epoch —
	// the in-process stand-in for SIGKILL (with Membership; see
	// harness.MembershipRunOptions.CrashAt).
	CrashAt int64
	// ScaleOutAbove and ScaleInBelow close the elasticity loop in
	// membership+auto runs (plan.MembershipAutoscale): mean records per live
	// worker per sampling window above which a registered standby is
	// admitted, and below which the coldest member is drain-left (0 disables
	// either direction). ScaleSustain is the number of consecutive windows
	// the signal must persist (default 3).
	ScaleOutAbove uint64
	ScaleInBelow  uint64
	ScaleSustain  int
}

// Run executes the benchmark and returns its measurements. In a cluster
// run the returned measurements are this process's local view (its own
// injected records and its local probe's latency observations).
func Run(cfg RunConfig) (harness.Result, error) {
	if cfg.Membership {
		return runMembership(cfg)
	}
	if cfg.Cluster != nil && cfg.Cluster.Absent != nil {
		return harness.Result{}, fmt.Errorf("keycount: a roster with absent slots requires dynamic membership (Membership)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.EpochEvery <= 0 {
		cfg.EpochEvery = time.Millisecond
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

	if (cfg.CheckpointDir != "" || cfg.Recover) && cfg.OpName() == "" {
		return harness.Result{}, fmt.Errorf("keycount: checkpointing requires a migrateable variant (hash or key), not %v", cfg.Variant)
	}
	ckpt, duration, err := harness.PlanCheckpoints("keycount", cfg.CheckpointDir, cfg.CheckpointEvery,
		cfg.Recover, cfg.Transfer, totalWorkers, firstWorker, cfg.Workers, cfg.EpochEvery, cfg.Duration)
	if err != nil {
		return harness.Result{}, err
	}
	cfg.Duration = duration
	cfg.Params.Checkpoint = ckpt.Config
	cfg.Params.Restore = ckpt.Restore(cfg.OpName())

	var meter *core.LoadMeter
	if cfg.Auto != nil {
		meter = core.NewLoadMeter(totalWorkers, cfg.LogBins)
		cfg.Params.Meter = meter
		cfg.Auto.Meter = meter
		if mesh != nil {
			// Cluster-wide control plane: exchange load telemetry over the
			// mesh and let the elected lowest-index live process drive the
			// policy for everyone.
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
	var dataIns []*dataflow.InputHandle[uint64]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	handles := &Handles{
		Hash: &core.Handle[uint64, HashState, Out]{},
		Key:  &core.Handle[uint64, ArrayState, Out]{},
	}
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[uint64](w, "data")
		dataIns = append(dataIns, in)
		out := Build(w, cfg.Params, ctlStream, data, handles)
		if cfg.Sink != nil {
			attachSink(w, out, cfg.Sink)
		}
		p := dataflow.NewProbe(w, out)
		if w.Index() == firstWorker {
			probe = p
		}
	})
	if cfg.Preload && cfg.Params.Restore == nil {
		// A restored run's bins (and their assignment) come from the
		// checkpoint; preloading against the initial assignment would
		// fight it.
		PreloadLocal(cfg.Params, totalWorkers, handles, firstWorker, cfg.Workers)
	}
	exec.Start()

	bins := 1 << uint(cfg.LogBins)
	ctl, auto := harness.NewDriver(cfg.Auto, ctlIns, probe, bins, totalWorkers, ckpt.InitialAssignment())

	var migrations []harness.Migration
	if cfg.Auto == nil && cfg.MigrateAt > 0 {
		initial := plan.Initial(bins, totalWorkers)
		// First migration: move the keys of half the workers to the other
		// half (25% of total state), producing an imbalanced assignment.
		var firstHalf []int
		for i := 0; i < (totalWorkers+1)/2; i++ {
			firstHalf = append(firstHalf, i)
		}
		imbalanced := plan.Rebalance(bins, firstHalf)
		epoch := int64(cfg.MigrateAt / cfg.EpochEvery)
		migrations = append(migrations, harness.Migration{
			AtEpoch: epoch,
			Plan:    plan.Build(cfg.Strategy, initial, imbalanced, cfg.Batch),
		})
		if cfg.MigrateTwo {
			epoch2 := epoch + (int64(cfg.Duration/cfg.EpochEvery)-epoch)/2
			if cfg.MigrateTwoAt > 0 {
				epoch2 = int64(cfg.MigrateTwoAt / cfg.EpochEvery)
			}
			migrations = append(migrations, harness.Migration{
				AtEpoch: epoch2,
				Plan:    plan.Build(cfg.Strategy, imbalanced, initial, cfg.Batch),
			})
		}
		migrations = ckpt.FilterMigrations(migrations)
	}

	domain := uint64(cfg.Domain)
	workload := cfg.Workload
	gen := func(w int, epoch int64, n int) []uint64 {
		out := make([]uint64, n)
		workload.Fill(out, domain, w, epoch)
		return out
	}

	res := harness.Run(exec, dataIns, ctl, probe, gen, harness.Options{
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
	// A cluster run whose transport died (a peer unreachable past its dial
	// timeout) halts instead of wedging; surface the cause alongside the
	// partial measurements.
	return res, exec.Err()
}

// attachSink adds a per-worker sink operator that renders every output
// record as a line. Sinks are only attached when requested, so the default
// dataflow is unchanged.
func attachSink(w *dataflow.Worker, out dataflow.Stream[Out], sink func(string)) {
	b := w.NewOp("out-sink", 0)
	dataflow.Connect(b, out, dataflow.Pipeline[Out]{})
	b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t core.Time, data []Out) {
			for _, o := range data {
				sink(fmt.Sprintf("%d:%d", o.Key, o.Count))
			}
		})
	})
}
