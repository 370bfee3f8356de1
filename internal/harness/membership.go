package harness

import (
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/metrics"
	"megaphone/internal/plan"
)

// clusterFabric bundles the two halves of the runtime the membership
// protocol drives: the local execution (pause/resume, hold inventory,
// tracker reset, views) and the mesh (peer activity, counters, membership
// epoch). Together they satisfy plan.Fabric.
type clusterFabric struct {
	*dataflow.Execution
	*dataflow.Mesh
}

var _ plan.Fabric = clusterFabric{}

// runMembership drives one process of a dynamic-membership run: the
// open-loop injection of Run, plus the membership controller's transitions —
// admission barrier for a joiner, drain-out for a leaver, crash barrier and
// bounded input replay when a member is declared dead. Latency probing is
// deliberately absent: membership runs measure output equivalence, not
// latency. Scripted migrations route through the controller's schedule
// broadcast, so the move set stays canonical across leader failovers; Auto
// hands it the autoscaler's telemetry half (load deltas over the same
// control bus, behind the same failure detector), and the leader turns the
// cluster-wide load windows into standby admissions and drain-leaves.
// Every process of the run must use the same config apart from LeaveAt and
// CrashAt. Duration is measured from the base start epoch: a joiner
// admitted at epoch J drives [J, end] of the same global epoch range. The
// cluster-wide input count is the full roster's, absent slots included:
// their slots are covered by the live processes, so the input multiset is
// membership-independent.
func runMembership[T any](env Env, exec *dataflow.Execution, mesh *dataflow.Mesh, ckpt *checkpointPlan, parts Parts[T],
	inputs []*dataflow.InputHandle[T], ctl []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, bins int) (Result, error) {
	var initialActive []bool
	if env.Cluster.Absent != nil {
		initialActive = make([]bool, len(env.Cluster.Absent))
		for p := range initialActive {
			initialActive[p] = !env.Cluster.Absent[p]
		}
	}
	// In membership mode Auto is telemetry-only: bin moves must route
	// through the membership plane, so no AutoController (and no policy)
	// runs.
	var autoscale *plan.MembershipAutoscale
	if env.Auto != nil {
		autoscale = &plan.MembershipAutoscale{
			Meter:       env.Meter,
			SampleEvery: env.Auto.SampleEvery,
			HotRecs:     env.ScaleOutAbove,
			ColdRecs:    env.ScaleInBelow,
			Sustain:     env.ScaleSustain,
			Cost:        env.Auto.Cost,
		}
	}
	fab := clusterFabric{Execution: exec, Mesh: mesh}
	mc := plan.NewMembershipController(plan.MembershipOptions{
		ClusterOptions: *env.clusterOptions(mesh),
		Fabric:         fab,
		Frontier:       probe.Frontier,
		Bins:           bins,
		InitialActive:  initialActive,
		CheckpointDir:  env.CheckpointDir,
		Slack:          env.MembershipSlack,
		Autoscale:      autoscale,
	})
	// Manifests record the roster live at each checkpoint epoch, so a
	// checkpoint taken after a death completes (and restores) without the
	// dead slots' manifests. Wired before Start: worker goroutines read the
	// config when a checkpoint command reaches them.
	ckpt.config.LiveAt = mc.LiveWorkersAt
	// The Section 5 schedule, rendered against the live roster at decision
	// time. Every process registers the same specs; only the leader renders
	// and broadcasts the schedules.
	for i, at := range env.schedule {
		mc.ScheduleMigration(plan.MigrationSpec{
			At:       core.Time(at),
			Strategy: env.Strategy,
			Batch:    env.Batch,
			Target: func(cur plan.Assignment, live []int) plan.Assignment {
				return paperTargets(len(cur), live)[i]
			},
		})
	}
	if parts.Preload != nil {
		// The membership initial assignment is live-only when the roster
		// starts with absent slots; a joiner owns no bins at start, so this
		// is naturally a no-op on its process.
		parts.Preload(mc.Assignment())
	}
	exec.Start()

	gen, binOf := parts.Gen, parts.BinOf
	totalInputs := int64(env.TotalWorkers)
	perEpoch := int64(float64(env.Rate) * env.EpochEvery.Seconds())
	nOf := func(g int64) int {
		n := perEpoch / totalInputs
		if g < perEpoch%totalInputs {
			n++
		}
		return int(n)
	}
	endEpoch := int64(env.Duration / env.EpochEvery) // base start epoch is 1

	res := Result{Timeline: metrics.NewTimeline(), Hist: &metrics.Histogram{}, Memory: &metrics.Series{Name: "heap-bytes"}}

	settle := func() {
		for {
			ok := true
			for _, in := range inputs {
				ok = ok && in.Settled()
			}
			for _, h := range ctl {
				ok = ok && h.Settled()
			}
			if ok {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Entry: members start at the base epoch and seed the live-only
	// assignment; a joiner asks for admission, advances straight to the
	// commit epoch, and runs the admission barrier before its first epoch.
	startEpoch := int64(1)
	if mc.Joiner() {
		tr, err := mc.AwaitAdmission()
		if err != nil {
			return res, err
		}
		for _, in := range inputs {
			in.AdvanceTo(tr.Epoch)
		}
		for _, h := range ctl {
			h.AdvanceTo(tr.Epoch)
		}
		settle()
		mc.RunBarrier(tr)
		startEpoch = int64(tr.Epoch)
	} else {
		for _, in := range inputs {
			in.AdvanceTo(core.Time(startEpoch))
		}
		for _, h := range ctl {
			h.AdvanceTo(core.Time(startEpoch))
		}
		if mv := mc.InitialMoves(); len(mv) > 0 {
			ctl[0].SendAt(core.Time(startEpoch), mv...)
		}
		// Align on cluster-wide readiness before starting the clock, as Run
		// does: the output frontier reaches the start epoch only once every
		// live process has opened its inputs there.
		for {
			if f := probe.Frontier(); f == core.None || int64(f) >= startEpoch {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	start := time.Now()
	deadline := func(e int64) time.Time {
		return start.Add(time.Duration(e-startEpoch+1) * env.EpochEvery)
	}

	// replay re-injects, at the crash commit epoch, this process's replay
	// share of the input window the barrier established as lost — per bin,
	// the epochs in [BinCut[bin], Epoch): from the checkpoint epoch for the
	// dead member's bins (their state rolled back there), from the owner's
	// applied bound for everyone else's (applications below it survived in
	// place; records at or above it were purged).
	replay := func(tr *plan.Transition, br plan.BarrierResult, at core.Time) int64 {
		lo := int64(tr.Epoch)
		for _, c := range br.BinCut {
			if int64(c) < lo {
				lo = int64(c)
			}
		}
		var injected int64
		for _, g := range mc.ReplaySlots(tr.Epoch) {
			n := nOf(int64(g))
			if n == 0 {
				continue
			}
			for e := lo; e < int64(tr.Epoch); e++ {
				batch := gen(g, e, n)
				kept := batch[:0]
				for _, r := range batch {
					if core.Time(e) >= br.BinCut[binOf(r)] {
						kept = append(kept, r)
					}
				}
				if len(kept) > 0 {
					inputs[0].SendBatchAt(at, kept)
					injected += int64(len(kept))
				}
			}
		}
		return injected
	}

	leaveCommit := int64(-1) // commit epoch of this process's own drain
	leaveRequested := false
	departing := false
	recoverable := func() bool {
		_, _, ok, err := core.LatestCheckpoint(env.CheckpointDir, int(totalInputs))
		return err == nil && ok
	}
	for e := startEpoch; e <= endEpoch; e++ {
		if env.CrashAt > 0 && e >= env.CrashAt && recoverable() {
			fab.Mesh.Abandon()
			fab.Execution.Halt()
			fab.Execution.Wait()
			res.Elapsed = time.Since(start).Seconds()
			return res, nil
		}
		if d := time.Until(deadline(e)); d > 0 {
			time.Sleep(d)
		}
		t := core.Time(e)

		if tr := mc.NextCommit(); tr != nil && t == tr.Epoch {
			switch tr.Kind {
			case plan.TransitionDrain:
				mc.CommitDrain(tr)
				if tr.Slot == mc.Proc() {
					leaveCommit = e
				}
			default: // join (member side) or crash-leave
				settle()
				br := mc.RunBarrier(tr)
				if tr.Kind == plan.TransitionCrash {
					res.Records += replay(tr, br, t)
				}
			}
		}

		if mv := mc.MovesAt(t); len(mv) > 0 {
			ctl[0].SendAt(t, mv...)
		}
		if ckpt.every > 0 && e%ckpt.every == 0 && e != startEpoch {
			ctl[0].SendAt(t, core.CheckpointMove())
		}
		for _, g := range mc.Covered(t) {
			n := nOf(int64(g))
			if n == 0 {
				continue
			}
			batch := gen(g, e, n)
			h := inputs[g%len(inputs)]
			if first := mc.Proc() * len(inputs); g >= first && g < first+len(inputs) {
				h = inputs[g-first]
			}
			h.SendBatchAt(t, batch)
			res.Records += int64(len(batch))
		}
		mc.Tick(t)
		for _, in := range inputs {
			in.AdvanceTo(t + 1)
		}
		for _, h := range ctl {
			h.AdvanceTo(t + 1)
		}
		res.Epochs = e

		if env.LeaveAt > 0 && e >= env.LeaveAt && !leaveRequested {
			mc.RequestLeave()
			leaveRequested = true
		}
		if leaveCommit >= 0 {
			// Drained out once the frontier passes the commit epoch: the
			// moves at it executed, so our bins are shipped and installed.
			if f := probe.Frontier(); f == core.None || int64(f) > leaveCommit {
				departing = true
				res.Epochs = e
				break
			}
		}
	}

	if departing {
		// Depart: close inputs (the flush drops our capability holds and the
		// progress broadcast retires them cluster-wide), wait for our own
		// frontier to confirm the drops were applied — at which point the
		// retirement frames are queued ahead of anything we send next — then
		// say goodbye (survivors retire this slot on receipt) and FIN out
		// one-sidedly.
		holdEpoch := res.Epochs + 1 // inputs were advanced here before the break
		for _, h := range ctl {
			h.Close()
		}
		for _, in := range inputs {
			in.Close()
		}
		for {
			if f := probe.Frontier(); f == core.None || int64(f) > holdEpoch {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		fab.Mesh.Leave()
		mc.Goodbye()
		fab.Execution.Halt()
		fab.Execution.Wait()
		res.Elapsed = time.Since(start).Seconds()
		return res, nil
	}

	// Normal shutdown: close inputs and drain. A process that outlived a
	// drained or dead peer reaches this with the peer retired, so the
	// shutdown barrier does not wait for it.
	for _, h := range ctl {
		h.Close()
	}
	for _, in := range inputs {
		in.Close()
	}
	fab.Execution.Wait()
	res.Elapsed = time.Since(start).Seconds()
	return res, fab.Execution.Err()
}
