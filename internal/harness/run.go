package harness

import (
	"fmt"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/plan"
)

// Config is the run configuration every workload exposes;
// keycount.RunConfig and nexmark.RunConfig embed it and hand it to Launch.
type Config struct {
	// Workers is the number of workers in this process. In a cluster run
	// (Cluster non-nil) every process contributes Workers workers and the
	// execution spans Workers * len(Cluster.Hosts) workers total (default 4).
	Workers  int
	Rate     int           // records per second, cluster-wide
	Duration time.Duration // total run
	// EpochEvery is the epoch granularity (default 1ms).
	//
	//megalint:allow unreached test support: the cluster and membership equivalence tests (TestClusterKeycountEquivalence, TestClusterNexmarkQ4Equivalence, TestMembershipJoinCrashDrainEquivalence) pin it
	EpochEvery time.Duration
	// Strategy and Batch configure the migration executed mid-run (at half
	// of the run, rebalancing 25% of the bins as in Section 5: half the
	// bins of half the workers move to the other half), and the second
	// migration back when Extras.MigrateTwo asks for it. MigrateAt <= 0
	// disables migration.
	Strategy  plan.Strategy
	Batch     int
	MigrateAt time.Duration
	// Auto, when non-nil, installs a metering AutoController that issues
	// plans from measured load instead of the scheduled MigrateAt
	// migrations (which are then ignored). Launch supplies its Meter and,
	// in a cluster, its control plane.
	Auto *plan.AutoOptions
	// Cluster, when non-nil, runs this process's share of a multi-process
	// execution: the process joins the mesh, runs Workers of the global
	// worker space, and injects its workers' share of the (deterministic)
	// input stream. Every process must be started with the same config
	// apart from Cluster.Process.
	Cluster *dataflow.ClusterSpec
	// CheckpointDir enables epoch-aligned checkpoints into this directory
	// (shared by every process of a local cluster); CheckpointEvery is the
	// cadence (default 1s). Requires a dataflow with migrateable state.
	CheckpointDir   string
	CheckpointEvery time.Duration
	// Recover loads the newest complete checkpoint from CheckpointDir
	// before starting and resumes the (deterministic) input stream at its
	// epoch; Duration still names the original total run length, so the
	// recovered run ends at the same epoch an uninterrupted run would.
	Recover bool
}

// Extras are the run options only keycount.RunConfig carries, embedded
// beside Config: nexmark always runs both scheduled migrations (it hands
// Launch Extras{MigrateTwo: true}), never samples the heap, and runs on a
// fixed roster.
type Extras struct {
	MigrateTwo bool // also run the re-balancing second migration
	// MigrateTwoAt pins the second migration's epoch explicitly; zero keeps
	// the default midpoint between MigrateAt and the end of the run.
	//
	//megalint:allow unreached test support: TestMembershipCrashMidMigrationEquivalence places its second kill inside the second migration
	MigrateTwoAt time.Duration
	Memory       bool // sample the heap into Result.Memory
	// Membership enables the dynamic-membership control plane: the roster
	// may grow (Cluster.Absent slots joining mid-run) and shrink (drain- and
	// crash-leave) while the dataflow keeps running. The run goes through
	// Run's loop like any other, paced and latency-probed the same way, with
	// the membership controller as its driver. Requires Cluster and
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
	// CrashAt makes this process abandon the run abruptly when its drive
	// loop reaches that epoch (with Membership): no input close, no goodbye,
	// no FIN — the in-process stand-in for SIGKILL (multi-process fixtures
	// use the real signal). Survivors must declare the slot dead and
	// recover. Keep it away from commit epochs; a process parked in a
	// barrier cannot crash through this hook. The abandon waits until a
	// complete full-roster checkpoint exists: without one the dead member's
	// bins are unrecoverable and the survivors can never declare the death,
	// and on a loaded machine the probe frontier can lag the wall-clock
	// epoch by hundreds of epochs, so an unconditional abandon could outrun
	// the first checkpoint's completion.
	//
	//megalint:allow unreached test support: TestMembershipJoinCrashDrainEquivalence and TestMembershipCrashMidMigrationEquivalence kill members in process
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

// Dataflow is what a workload hands Launch: its name, which prefixes every
// error, its bin count, the names of its checkpointable operators, and the
// parts it builds once the run is resolved.
type Dataflow[T any] struct {
	Name    string
	LogBins int
	// Ops names the megaphone operators, one checkpoint subdirectory each.
	// A dataflow with none has no migrateable state: it can neither
	// checkpoint nor run under dynamic membership.
	Ops   []string
	Parts func(env Env) Parts[T]
}

// Env is the resolved run a workload builds its parts for: the config
// with its defaults applied, this process's place in the worker space, and
// the checkpoint and meter wiring its megaphone operators take.
type Env struct {
	Config
	Extras
	FirstWorker  int // global index of this process's first worker
	TotalWorkers int // workers across every process of the execution
	Checkpoint   *core.CheckpointConfig
	Meter        *core.LoadMeter // nil unless Auto is set

	// schedule holds the scripted migrations' epochs, resolved against the
	// whole run: the duration a recovered run drives is trimmed to what
	// remains, and would move the default second migration.
	schedule []int64
}

// Parts are a workload's dataflow, input and bins for one run.
type Parts[T any] struct {
	// Build constructs worker w's dataflow over the control and data
	// inputs and returns a probe on its output.
	Build func(w *dataflow.Worker, ctl dataflow.Stream[core.Move], data dataflow.Stream[T]) *dataflow.Probe
	Gen   Gen[T]
	// BinOf maps a record to its bin: dynamic membership replays a dead
	// member's input by bin.
	BinOf func(T) int
	// Preload, when non-nil, pre-creates the state of this process's bins
	// under the initial assignment (fresh runs only: a restored run's bins
	// and their assignment come from the checkpoint).
	Preload func(plan.Assignment)
}

// Launch runs one process's share of a workload and returns its
// measurements (in a cluster run, this process's local view). It is the
// one place that validates a run, joins the mesh, plans checkpoints, wires
// the meter and the control plane, builds the inputs, and drives the run
// through Run's one loop: with a scripted or adaptive driver on a fixed
// roster, or, when Membership is set, with the membership controller as
// the driver of a roster that changes. Every refusal comes before the mesh
// is joined, so a refused process never leaves a peer waiting out its dial
// timeout.
func Launch[T any](cfg Config, x Extras, df Dataflow[T]) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.EpochEvery <= 0 {
		cfg.EpochEvery = time.Millisecond
	}
	env := Env{Config: cfg, Extras: x, TotalWorkers: cfg.Workers}
	if err := env.validate(df.Name, len(df.Ops) > 0); err != nil {
		return Result{}, err
	}
	if cfg.Cluster != nil {
		env.FirstWorker = cfg.Cluster.Process * cfg.Workers
		env.TotalWorkers = len(cfg.Cluster.Hosts) * cfg.Workers
	}
	env.schedule = env.migrationEpochs()
	ckpt, duration, err := planCheckpoints(df.Name, df.Ops, df.LogBins, cfg.CheckpointDir, cfg.CheckpointEvery,
		cfg.Recover, env.TotalWorkers, env.FirstWorker, cfg.Workers, cfg.EpochEvery, cfg.Duration)
	if err != nil {
		return Result{}, err
	}
	env.Duration = duration
	env.Checkpoint = ckpt.config
	if cfg.Auto != nil {
		env.Meter = core.NewLoadMeter(env.TotalWorkers, df.LogBins)
	}
	parts := df.Parts(env)

	var mesh *dataflow.Mesh // nil: the single-process case
	if cfg.Cluster != nil {
		if mesh, err = dataflow.JoinMesh(*cfg.Cluster); err != nil {
			return Result{}, err
		}
	}
	exec := dataflow.NewExecution(dataflow.Config{Workers: cfg.Workers, Mesh: mesh})
	var dataIns []*dataflow.InputHandle[T]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[T](w, "data")
		dataIns = append(dataIns, in)
		if p := parts.Build(w, ctlStream, data); w.Index() == env.FirstWorker {
			probe = p
		}
	})

	bins := 1 << uint(df.LogBins)
	opts := Options{
		Rate:            env.Rate,
		EpochEvery:      env.EpochEvery,
		Duration:        env.Duration,
		SampleMemory:    env.Memory,
		TotalInputs:     env.TotalWorkers,
		FirstInput:      env.FirstWorker,
		CheckpointEvery: ckpt.every,
		StartEpoch:      ckpt.startEpoch,
	}
	var ctl Driver
	var r roster // nil: the fixed roster
	var adaptive *plan.AutoController
	if x.Membership {
		m := newMembership(env, exec, mesh, ckpt, parts, dataIns, ctlIns, probe, bins)
		ctl, r = m, m
	} else {
		ctl, adaptive, opts.Migrations = fixedDriver(env, exec, mesh, ckpt, parts, ctlIns, probe, bins)
	}
	res, err := drive(exec, dataIns, ctl, probe, parts.Gen, opts, r)
	if adaptive != nil {
		res.Decisions = adaptive.Decisions()
	}
	if err == nil {
		// A cluster run whose transport died (a peer unreachable past its
		// dial timeout) halts instead of wedging; surface the cause
		// alongside the partial measurements.
		err = exec.Err()
	}
	if env.Meter != nil {
		res.Load = env.Meter.Snapshot(nil)
	}
	ckpt.finish(&res)
	return res, err
}

// validate refuses what no dataflow can run: membership without its
// prerequisites, absent roster slots without membership, and checkpoints
// of a dataflow with no migrateable state.
func (c Env) validate(name string, migrateable bool) error {
	switch {
	case c.Membership && c.Cluster == nil:
		return fmt.Errorf("%s: dynamic membership requires a cluster (-hosts)", name)
	case c.Membership && c.Recover:
		return fmt.Errorf("%s: -recover (crash recovery is per-member, inside the run) cannot be combined with dynamic membership", name)
	case c.Membership && c.CheckpointDir == "":
		return fmt.Errorf("%s: dynamic membership requires -checkpoint-dir (crash-leave restores the dead member's bins from the latest complete checkpoint)", name)
	case c.Membership && c.Auto != nil && c.ScaleOutAbove == 0 && c.ScaleInBelow == 0:
		return fmt.Errorf("%s: -auto with dynamic membership drives elasticity from load thresholds; give -scale-out-above and/or -scale-in-below", name)
	case !c.Membership && c.Cluster != nil && c.Cluster.Absent != nil:
		return fmt.Errorf("%s: a roster with absent slots requires dynamic membership (Membership)", name)
	case (c.CheckpointDir != "" || c.Recover || c.Membership) && !migrateable:
		return fmt.Errorf("%s: checkpoints and dynamic membership require migrateable (megaphone) state, and this dataflow has none", name)
	}
	return nil
}

// fixedDriver starts a fixed-roster run, with a recovering run's restore
// moves on the control stream, and returns its driver: a scripted
// plan.Controller with the Section 5 migrations, or an AutoController (also
// returned, for its decisions) when Auto is set.
func fixedDriver[T any](env Env, exec *dataflow.Execution, mesh *dataflow.Mesh, ckpt *checkpointPlan, parts Parts[T],
	ctlIns []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, bins int) (Driver, *plan.AutoController, []Migration) {
	if parts.Preload != nil && !ckpt.recovered {
		parts.Preload(plan.Initial(bins, env.TotalWorkers))
	}
	exec.Start()
	ckpt.sendRestores(ctlIns[0])

	var auto *plan.AutoOptions
	var migrations []Migration
	if env.Auto != nil {
		a := *env.Auto
		a.Meter = env.Meter
		if mesh != nil {
			// Cluster-wide control plane: exchange load telemetry over the
			// mesh and let the elected lowest-index live process drive the
			// policy for everyone.
			a.Cluster = env.clusterOptions(mesh)
		}
		auto = &a
	} else {
		all := make([]int, env.TotalWorkers)
		for i := range all {
			all[i] = i
		}
		targets := paperTargets(bins, all)
		for i, at := range env.schedule {
			migrations = append(migrations, Migration{
				AtEpoch: at,
				Plan:    plan.Build(env.Strategy, targets[(i+1)%2], targets[i], env.Batch),
			})
		}
	}
	ctl, adaptive := newDriver(auto, ctlIns, probe, bins, env.TotalWorkers, ckpt.initialAssignment())
	return ctl, adaptive, ckpt.filterMigrations(migrations)
}

// clusterOptions is the control plane's view of this process in the mesh.
func (c Config) clusterOptions(mesh *dataflow.Mesh) *plan.ClusterOptions {
	return &plan.ClusterOptions{
		Bus:            mesh,
		Procs:          mesh.Procs(),
		Proc:           mesh.Process(),
		WorkersPerProc: c.Workers,
		Liveness:       plan.Liveness{TickEvery: c.EpochEvery},
		Logf:           c.Cluster.Logf,
	}
}

// paperTargets is the Section 5 schedule's two destinations over the live
// workers: first half the bins of half the workers move to the other half
// (25% of the state), then every bin goes back to the round-robin
// assignment over all of them. Over a fixed roster the second target is
// plan.Initial, so it is also where the first migration starts.
func paperTargets(bins int, live []int) [2]plan.Assignment {
	return [2]plan.Assignment{plan.Rebalance(bins, live[:(len(live)+1)/2]), plan.Rebalance(bins, live)}
}

// migrationEpochs returns the scripted schedule's epochs: MigrateAt and,
// with MigrateTwo, MigrateTwoAt or else halfway from MigrateAt to the end.
func (c Env) migrationEpochs() []int64 {
	if c.MigrateAt <= 0 {
		return nil
	}
	at := int64(c.MigrateAt / c.EpochEvery)
	if !c.MigrateTwo {
		return []int64{at}
	}
	at2 := at + (int64(c.Duration/c.EpochEvery)-at)/2
	if c.MigrateTwoAt > 0 {
		at2 = int64(c.MigrateTwoAt / c.EpochEvery)
	}
	return []int64{at, at2}
}

// newDriver wires a run's migration driver: a plain plan.Controller for
// scripted plans, or — when auto is non-nil — an AutoController over
// initial (the default round-robin assignment when nil; a recovering run
// passes its checkpointPlan.initialAssignment so the controller's view of
// bin ownership matches the restored routing history). The AutoController
// is also returned directly so the runner can collect its decisions (nil
// otherwise); auto.Meter must already be set.
func newDriver(auto *plan.AutoOptions, handles []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, bins, workers int, initial plan.Assignment) (Driver, *plan.AutoController) {
	if auto == nil {
		return plan.NewController(handles, probe), nil
	}
	if initial == nil {
		initial = plan.Initial(bins, workers)
	}
	a := plan.NewAutoController(handles, probe, initial, *auto)
	return a, a
}
