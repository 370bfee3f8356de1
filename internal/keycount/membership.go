package keycount

import (
	"fmt"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// runMembership is the dynamic-membership variant of Run: the cluster's
// roster may grow (an absent slot joins mid-run) and shrink (drain-leave and
// crash-leave) while the dataflow keeps running. Scripted migrations route
// through the membership controller's schedule broadcast (so the move set
// stays canonical across leader failovers), preload consults the live-roster
// initial assignment, and -auto hands the membership controller the
// autoscaler's telemetry half (load deltas over the same control bus, behind
// the same failure detector) — the membership leader turns the cluster-wide
// load windows into standby admissions and drain-leaves.
// Only whole-cluster -recover stays rejected: recovery inside a membership
// run is per-member (crash-leave).
func runMembership(cfg RunConfig) (harness.Result, error) {
	switch {
	case cfg.Cluster == nil:
		return harness.Result{}, fmt.Errorf("keycount: dynamic membership requires a cluster (-hosts)")
	case cfg.Recover:
		return harness.Result{}, harness.MembershipSpecError("keycount", "-recover (crash recovery is per-member, inside the run)")
	case cfg.CheckpointDir == "":
		return harness.Result{}, fmt.Errorf("keycount: dynamic membership requires -checkpoint-dir (crash-leave restores the dead member's bins from the latest complete checkpoint)")
	case cfg.Auto != nil && cfg.ScaleOutAbove == 0 && cfg.ScaleInBelow == 0:
		return harness.Result{}, fmt.Errorf("keycount: -auto with dynamic membership drives elasticity from load thresholds; give -scale-out-above and/or -scale-in-below")
	}
	var hashFn func(uint64) uint64
	switch cfg.Variant {
	case HashCount:
		hashFn = core.Mix64
	case KeyCount:
		hashFn = denseHasher(cfg.Domain)
	default:
		return harness.Result{}, fmt.Errorf("keycount: dynamic membership requires a migrateable variant (hash or key), not %v", cfg.Variant)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.EpochEvery <= 0 {
		cfg.EpochEvery = time.Millisecond
	}

	mesh, err := dataflow.JoinMesh(*cfg.Cluster)
	if err != nil {
		return harness.Result{}, err
	}
	procs, proc := mesh.Procs(), mesh.Process()
	totalWorkers := cfg.Workers * procs
	firstWorker := proc * cfg.Workers

	ckpt, duration, err := harness.PlanCheckpoints("keycount", cfg.CheckpointDir, cfg.CheckpointEvery,
		false, cfg.Transfer, totalWorkers, firstWorker, cfg.Workers, cfg.EpochEvery, cfg.Duration)
	if err != nil {
		return harness.Result{}, err
	}
	cfg.Duration = duration
	cfg.Params.Checkpoint = ckpt.Config

	var meter *core.LoadMeter
	if cfg.Auto != nil {
		meter = core.NewLoadMeter(totalWorkers, cfg.LogBins)
		cfg.Params.Meter = meter
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

	var initialActive []bool
	if cfg.Cluster.Absent != nil {
		initialActive = make([]bool, procs)
		for p := range initialActive {
			initialActive[p] = !cfg.Cluster.Absent[p]
		}
	}
	bins := 1 << uint(cfg.LogBins)

	// In membership mode -auto is telemetry-only: bin moves must route through
	// the membership plane, so no AutoController (and no policy) runs.
	var autoscale *plan.MembershipAutoscale
	if cfg.Auto != nil {
		autoscale = &plan.MembershipAutoscale{
			Meter:       meter,
			SampleEvery: cfg.Auto.SampleEvery,
			HotRecs:     cfg.ScaleOutAbove,
			ColdRecs:    cfg.ScaleInBelow,
			Sustain:     cfg.ScaleSustain,
			Cost:        cfg.Auto.Cost,
		}
	}

	fab := harness.ClusterFabric{Execution: exec, Mesh: mesh}
	mc := plan.NewMembershipController(plan.MembershipOptions{
		ClusterOptions: plan.ClusterOptions{
			Bus:            mesh,
			Procs:          procs,
			Proc:           proc,
			WorkersPerProc: cfg.Workers,
			Liveness:       plan.Liveness{TickEvery: cfg.EpochEvery},
			Logf:           cfg.Cluster.Logf,
		},
		Fabric:        fab,
		Frontier:      probe.Frontier,
		Bins:          bins,
		InitialActive: initialActive,
		CheckpointDir: cfg.CheckpointDir,
		Slack:         cfg.MembershipSlack,
		Autoscale:     autoscale,
	})
	// Manifests record the roster live at each checkpoint epoch, so a
	// checkpoint taken after a death completes (and restores) without the
	// dead slots' manifests. Wired before Start: worker goroutines read the
	// config when a checkpoint command reaches them.
	ckpt.Config.LiveAt = mc.LiveWorkersAt

	if cfg.MigrateAt > 0 {
		// The Section 5 schedule, rendered against the live roster at decision
		// time: first imbalance onto half the live workers, then (MigrateTwo)
		// rebalance back across all of them. Every process registers the same
		// specs; only the leader renders and broadcasts the schedules.
		at := core.Time(cfg.MigrateAt / cfg.EpochEvery)
		mc.ScheduleMigration(plan.MigrationSpec{
			At:       at,
			Strategy: cfg.Strategy,
			Batch:    cfg.Batch,
			Target: func(cur plan.Assignment, live []int) plan.Assignment {
				return plan.Rebalance(len(cur), live[:(len(live)+1)/2])
			},
		})
		if cfg.MigrateTwo {
			end := core.Time(cfg.Duration / cfg.EpochEvery)
			at2 := at + (end-at)/2
			if cfg.MigrateTwoAt > 0 {
				at2 = core.Time(cfg.MigrateTwoAt / cfg.EpochEvery)
			}
			mc.ScheduleMigration(plan.MigrationSpec{
				At:       at2,
				Strategy: cfg.Strategy,
				Batch:    cfg.Batch,
				Target: func(cur plan.Assignment, live []int) plan.Assignment {
					return plan.Rebalance(len(cur), live)
				},
			})
		}
	}

	if cfg.Preload {
		// Preload against the membership initial assignment (live-only when
		// the roster starts with absent slots). A joiner owns no bins at
		// start, so this is naturally a no-op on its process.
		PreloadAssigned(cfg.Params, mc.Assignment(), handles, firstWorker, cfg.Workers)
	}
	exec.Start()

	domain := uint64(cfg.Domain)
	workload := cfg.Workload
	gen := func(w int, epoch int64, n int) []uint64 {
		out := make([]uint64, n)
		workload.Fill(out, domain, w, epoch)
		return out
	}
	logBins := cfg.LogBins
	binOf := func(k uint64) int { return core.BinOf(hashFn(k), logBins) }

	res, err := harness.RunMembership(fab, mc, dataIns, ctlIns, probe, gen, binOf, harness.MembershipRunOptions{
		Rate:            cfg.Rate,
		EpochEvery:      cfg.EpochEvery,
		Duration:        cfg.Duration,
		TotalInputs:     totalWorkers,
		CheckpointEvery: ckpt.Every,
		LeaveAt:         cfg.LeaveAt,
		CrashAt:         cfg.CrashAt,
		CheckpointDir:   cfg.CheckpointDir,
	})
	if meter != nil {
		res.Load = meter.Snapshot(nil)
	}
	ckpt.Finish(&res)
	return res, err
}
