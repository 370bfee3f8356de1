package harness

import (
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
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

// Err is the execution's: the transport's error once it halted the run.
func (f clusterFabric) Err() error { return f.Execution.Err() }

// newMembership starts one process of a dynamic-membership run and returns
// its driver and roster for Run's loop, around the membership controller.
// Scripted migrations route through the controller's schedule broadcast, so
// the move set stays canonical across leader failovers; Auto hands it the
// autoscaler's telemetry half, and the leader turns the cluster-wide load
// windows into standby admissions and drain-leaves. Every process must use
// the same config apart from LeaveAt and CrashAt. Duration counts from the
// base start epoch: a joiner admitted at epoch J drives [J, end]. The
// cluster-wide input count is the full roster's, absent slots included:
// the live processes cover those, so the input multiset is
// membership-independent.
func newMembership[T any](env Env, exec *dataflow.Execution, mesh *dataflow.Mesh, ckpt *checkpointPlan, parts Parts[T],
	inputs []*dataflow.InputHandle[T], ctl []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, bins int) *membership[T] {
	var initialActive []bool // nil: every slot starts live
	for _, absent := range env.Cluster.Absent {
		initialActive = append(initialActive, !absent)
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

	return &membership[T]{env: env, mc: mc, fab: fab, parts: parts, inputs: inputs, ctl: ctl, probe: probe,
		perEpoch: int64(float64(env.Rate) * env.EpochEvery.Seconds())}
}

// membership is a dynamic-membership run's Driver — the control side of an
// epoch: the controller's moves and tick, checkpoint commands — and its
// roster: a joiner's admission, the transitions committed at their epochs,
// the absent members' slots, and the crash-abandon and drain-departure
// exits.
type membership[T any] struct {
	env      Env
	mc       *plan.MembershipController
	fab      clusterFabric
	parts    Parts[T]
	inputs   []*dataflow.InputHandle[T]
	ctl      []*dataflow.InputHandle[core.Move]
	probe    *dataflow.Probe
	perEpoch int64    // records per epoch, cluster-wide
	sl       *sleeper // the run's, from enter on

	leaveCommit core.Time // commit epoch of this process's own drain (0: none)
	abandon     bool      // the exit is a crash, not a departure
	hold        int64     // where a departing process's inputs stand
}

// Tick injects the controller's moves for epoch t, lets it decide, and
// advances the control inputs past t.
func (m *membership[T]) Tick(t core.Time) {
	if mv := m.mc.MovesAt(t); len(mv) > 0 {
		m.ctl[0].SendAt(t, mv...)
	}
	m.mc.Tick(t)
	for _, h := range m.ctl {
		h.AdvanceTo(t + 1)
	}
}

func (m *membership[T]) Checkpoint(t core.Time) { m.ctl[0].SendAt(t, core.CheckpointMove()) }

func (m *membership[T]) Close() {
	for _, h := range m.ctl {
		h.Close()
	}
}

// Scripted migrations ride the controller's schedule broadcast, never
// Options.Migrations, so no plan is ever started here.
func (*membership[T]) Idle() bool                     { return true }
func (*membership[T]) Start(plan.Plan)                {}
func (*membership[T]) Span() (_, _ core.Time, _ bool) { return }

// enter: members start at the base epoch and seed the live-only
// assignment; a joiner asks for admission, advances straight to the commit
// epoch, and runs the admission barrier before its first epoch. It waits
// no longer than the run lasts, counted from its request: admitted at
// epoch J it drives only [J, end], so once Duration has passed it has
// nothing left to drive. A joiner that is not admitted abandons the run it
// never entered, as a crash does.
func (m *membership[T]) enter(start int64, sl *sleeper) (int64, error) {
	m.sl = sl
	var tr *plan.Transition
	if m.mc.Joiner() {
		var err error
		if tr, err = m.mc.AwaitAdmission(time.Now().Add(m.env.Duration)); err != nil {
			m.abandon = true
			m.exit()
			return 0, err
		}
		start = int64(tr.Epoch)
	}
	for _, in := range m.inputs {
		in.AdvanceTo(core.Time(start))
	}
	for _, h := range m.ctl {
		h.AdvanceTo(core.Time(start))
	}
	if tr != nil {
		m.barrier(tr)
	} else if mv := m.mc.InitialMoves(); len(mv) > 0 {
		m.ctl[0].SendAt(core.Time(start), mv...)
	}
	return start, nil
}

// barrier runs tr's barrier once every local input's sends are applied, as
// it requires on entry.
func (m *membership[T]) barrier(tr *plan.Transition) plan.BarrierResult {
	for !settled(m.inputs) || !settled(m.ctl) {
		m.sl.sleep(50 * time.Microsecond)
	}
	return m.mc.RunBarrier(tr)
}

func settled[T any](hs []*dataflow.InputHandle[T]) bool {
	for _, h := range hs {
		if !h.Settled() {
			return false
		}
	}
	return true
}

// exiting: a process told to crash abandons once a complete checkpoint
// exists (without one its bins are unrecoverable); a process told to leave
// requests its drain once past LeaveAt and departs once the frontier passes
// the drain's commit epoch: the moves at it executed, so its bins are
// shipped and installed.
func (m *membership[T]) exiting(e int64) bool {
	if m.env.CrashAt > 0 && e >= m.env.CrashAt {
		_, _, ok, err := core.LatestCheckpoint(m.env.CheckpointDir, m.env.TotalWorkers)
		if m.abandon = err == nil && ok; m.abandon {
			return true
		}
	}
	if m.env.LeaveAt > 0 && e > m.env.LeaveAt {
		m.mc.RequestLeave()
		m.env.LeaveAt = 0 // once
	}
	if m.leaveCommit == 0 {
		return false
	}
	m.hold = e // where the inputs stand, should the process depart
	f := m.probe.Frontier()
	return f == core.None || f > m.leaveCommit
}

// exit abandons the run like a SIGKILL (no input close, no goodbye, no
// FIN), or departs: close the inputs (the flush drops our capability holds
// and the progress broadcast retires them cluster-wide), wait for our own
// frontier to confirm the drops were applied — at which point the
// retirement frames are queued ahead of anything we send next — then say
// goodbye (survivors retire this slot on receipt) and FIN out one-sidedly.
func (m *membership[T]) exit() {
	if m.abandon {
		m.fab.Mesh.Abandon()
	} else {
		m.Close()
		for _, in := range m.inputs {
			in.Close()
		}
		awaitFrontier(m.fab.Execution, m.probe, m.sl, m.hold+1)
		m.fab.Mesh.Leave()
		m.mc.Goodbye()
	}
	m.fab.Execution.Halt()
}

// step commits the transition due at epoch t — a drain's commit, or the
// barrier of a join (member side) or crash-leave, after which a crash's
// lost input window is replayed — and returns the slots this process
// drives at t: its own, plus its share of the absent members'.
func (m *membership[T]) step(t core.Time) ([]int, int64) {
	var replayed int64
	if tr := m.mc.NextCommit(); tr != nil && tr.Epoch == t {
		switch tr.Kind {
		case plan.TransitionDrain:
			m.mc.CommitDrain(tr)
			if tr.Slot == m.mc.Proc() {
				m.leaveCommit = t
			}
		case plan.TransitionCrash:
			replayed = m.replay(tr, m.barrier(tr))
		default:
			m.barrier(tr)
		}
	}
	return m.mc.Covered(t), replayed
}

// replay re-injects, at the crash commit epoch, this process's replay share
// of the input window the barrier established as lost — per bin, the
// epochs in [BinCut[bin], Epoch): from the checkpoint epoch for the dead
// member's bins (their state rolled back there), from the owner's applied
// bound for everyone else's (applications below it survived in place;
// records at or above it were purged).
func (m *membership[T]) replay(tr *plan.Transition, br plan.BarrierResult) int64 {
	lo := int64(tr.Epoch)
	for _, c := range br.BinCut {
		lo = min(lo, int64(c))
	}
	var injected int64
	for _, g := range m.mc.ReplaySlots(tr.Epoch) {
		n := share(m.perEpoch, int64(m.env.TotalWorkers), g)
		for e := lo; e < int64(tr.Epoch) && n > 0; e++ {
			batch := m.parts.Gen(g, e, n)
			kept := batch[:0]
			for _, r := range batch {
				if core.Time(e) >= br.BinCut[m.parts.BinOf(r)] {
					kept = append(kept, r)
				}
			}
			if len(kept) > 0 {
				m.inputs[0].SendBatchAt(tr.Epoch, kept)
				injected += int64(len(kept))
			}
		}
	}
	return injected
}
