package plan

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
	"megaphone/internal/progress"
)

// This file is the membership control plane: it reconfigures the live worker
// space of a running cluster at epoch boundaries. Three transitions exist —
// join (an absent roster slot comes up and is admitted), drain-leave (a
// member migrates its bins away and departs cleanly), and crash-leave (a
// member is declared dead and its bins are rebuilt from the latest complete
// checkpoint). The leader (the lowest live member, elected by the process's
// one failure detector, liveness.go) decides each transition and broadcasts
// it with a commit epoch chosen a margin ahead of the present;
// every member applies the transition when its drive loop reaches that epoch,
// so membership changes commit at frontier-aligned epoch boundaries exactly
// like bin migrations do.
//
// Join and crash-leave additionally need a cluster-wide progress barrier: the
// progress trackers of the members do not account a joiner's capability holds
// (nor, after a crash, can they cancel the dead member's), so at the commit
// epoch every participant drains to quiescence, pauses its workers, exchanges
// an explicit inventory of its capability holds, and rebuilds its tracker
// from the summed inventories (dataflow.Execution.ResetProgress). Quiescence
// is certified Safra-style: the per-peer dataflow frame counters of all
// participants must match pairwise and stay unchanged over consecutive
// control rounds. Drain-leave needs no barrier — the leaver retires its holds
// through ordinary progress broadcasts before departing.

// TransitionKind distinguishes the membership transitions.
type TransitionKind int

const (
	// TransitionJoin admits an absent roster slot at the commit epoch.
	TransitionJoin TransitionKind = iota
	// TransitionDrain removes a member that asked to leave: its bins migrate
	// away at the commit epoch and it departs once the migration completes.
	TransitionDrain
	// TransitionCrash removes a member declared dead: at the commit epoch the
	// survivors rebuild its bins from a checkpoint and purge-and-replay the
	// unapplied input window.
	TransitionCrash
)

func (k TransitionKind) String() string {
	switch k {
	case TransitionJoin:
		return "join"
	case TransitionDrain:
		return "drain-leave"
	case TransitionCrash:
		return "crash-leave"
	}
	return fmt.Sprintf("TransitionKind(%d)", int(k))
}

// Transition is one decided membership change, mirrored identically on every
// member. The drive loop commits it when its epoch loop reaches Epoch.
type Transition struct {
	Kind     TransitionKind
	Slot     int       // roster process joining, leaving, or dead
	Epoch    core.Time // commit epoch (view switch, barrier, move injection)
	MemEpoch uint64    // membership epoch after the transition

	// Ckpt is the checkpoint epoch a crash-leave restores from; DeadBins are
	// the bins rebuilt from it (the dead member's bins at the crash).
	Ckpt     core.Time
	DeadBins []int
}

// BarrierResult reports what a membership barrier established.
type BarrierResult struct {
	// Cut is the purge boundary of a crash barrier: the common wedged
	// frontier of the participants, below which every record is applied
	// everywhere. For a join barrier Cut equals the commit epoch (nothing
	// was purged).
	Cut core.Time
	// BinCut, set only by a crash barrier, is the per-bin replay boundary:
	// for every bin b, records at epochs in [BinCut[b], Epoch) must be
	// re-injected from the deterministic source, and no record below it may
	// be. A dead bin rolls back to the checkpoint, so its boundary is the
	// checkpoint epoch. A surviving bin keeps its live state, whose content
	// is bounded by its owner's applied bound, not by Cut: the global
	// frontier wedges at whatever the dead process last acknowledged, while
	// the survivors kept applying epochs past it. The bounds are reported at
	// pause time and exchanged with the hold inventories; replaying from Cut
	// alone would re-apply [Cut, bound) on every surviving bin.
	BinCut []core.Time
}

// Fabric is the slice of the dataflow runtime the membership protocol
// drives. dataflow.Execution plus dataflow.Mesh implement it together (see
// harness.ClusterFabric); membership unit tests substitute fakes.
type Fabric interface {
	Pause()
	Resume()
	HoldInventory(b *progress.Batch)
	PurgeDeferred(cut core.Time)
	AppliedBounds() map[int]core.Time
	ResetProgress(b *progress.Batch)
	InstallView(from core.Time, active []bool)
	Activate(p int)
	RetirePeer(p int)
	SetMembershipEpoch(e uint64)
	DataCounters() (sent, recv []uint64)
}

// MembershipOptions configures a MembershipController.
type MembershipOptions struct {
	// ClusterOptions names the control channel (with *dataflow.Mesh it reaches
	// joined-but-not-yet-active peers too, which admission needs), the fixed
	// roster (Procs slots of WorkersPerProc workers each, this process at
	// index Proc) and the failure detector, whose window here is one tick.
	ClusterOptions
	// Fabric is the runtime the barriers drive (required).
	Fabric Fabric
	// Frontier reports the probe frontier of the local process (required):
	// the barrier's quiescence condition reads it.
	Frontier func() core.Time
	// Bins is the operator's total bin count (the assignment mirror's size).
	Bins int
	// InitialActive marks the roster slots live at start (nil = all). A
	// process whose own slot is false is a late joiner.
	InitialActive []bool
	// DeathAfter is how many further liveness windows of silence until a
	// suspected member is declared dead (default Liveness.SuspectAfter).
	// Suspicion only pauses leadership; declaration is irreversible.
	DeathAfter int
	// Margin is the number of epochs between a decision and its commit
	// epoch; it must exceed the control-plane latency measured in epochs,
	// and a decision arriving at a member whose loop has already passed the
	// commit epoch is fatal (raise Margin). Default 8.
	Margin core.Time
	// CheckpointDir locates checkpoints for crash-leave recovery. Required
	// to declare a member dead: without a complete checkpoint the dead
	// member's bins are unrecoverable.
	CheckpointDir string
	// BarrierTimeout bounds one membership barrier (default 60s).
	BarrierTimeout time.Duration
	// Slack multiplies Liveness.SuspectAfter, DeathAfter and Margin after
	// defaulting: one jitter-tolerance knob for environments where
	// scheduling latency is large relative to the tick interval
	// (race-instrumented fixtures, single-core CI machines). Default 1.
	Slack int
	// Autoscale, when non-nil, drives elasticity from load telemetry: a
	// registered standby is admitted only when the cluster is saturated, and
	// the coldest member is drain-left on sustained underload. Without it a
	// Hello is admitted as soon as the leader is free to decide.
	Autoscale *MembershipAutoscale
}

// MembershipAutoscale closes the elasticity loop: the membership controller
// runs the autoscaler's telemetry half itself (load deltas exchanged over the
// same bus, behind the same detector) and its leader turns sustained
// saturation into a standby admission and sustained underload into a
// drain-leave of the coldest member, with the scale-out priced by the
// migrate-or-not cost model. Bin moves still route through the membership
// plane only.
type MembershipAutoscale struct {
	// Meter is the load source (required); SampleEvery is the number of ticks
	// per telemetry window (default 250, as AutoOptions).
	Meter       *core.LoadMeter
	SampleEvery int
	// HotRecs is the mean records per live worker per sampling window above
	// which the cluster counts as saturated (0 disables scale-out).
	HotRecs uint64
	// ColdRecs is the mean below which it counts as underloaded (0 disables
	// scale-in).
	ColdRecs uint64
	// Sustain is the number of consecutive windows a signal must persist
	// before the leader acts (default 3).
	Sustain int
	// Cost, when non-nil, gates a scale-out on the projected profitability of
	// the rebalance it implies (see CostModel); a declined proposal resets
	// the saturation streak, so the next attempt waits another Sustain
	// windows.
	Cost *CostModel
	// MinProcs is the scale-in floor: never drain below this many live
	// processes (default 2).
	MinProcs int
}

func (as *MembershipAutoscale) defaults() {
	if as.SampleEvery <= 0 {
		as.SampleEvery = 250
	}
	if as.Sustain <= 0 {
		as.Sustain = 3
	}
	if as.MinProcs < 2 {
		as.MinProcs = 2
	}
}

func (o *MembershipOptions) defaults() {
	o.Liveness.defaults()
	if o.DeathAfter <= 0 {
		o.DeathAfter = o.Liveness.SuspectAfter
	}
	if o.Margin <= 0 {
		o.Margin = 8
	}
	if o.BarrierTimeout <= 0 {
		o.BarrierTimeout = 60 * time.Second
	}
	if o.Slack > 1 {
		o.Liveness.SuspectAfter *= o.Slack
		o.DeathAfter *= o.Slack
		o.Margin *= core.Time(o.Slack)
	}
}

// Membership control-plane payload kinds. They live above kindBeat (and the
// telemetry kinds below it), so the detector's dispatcher can route inbound
// frames by this first byte.
const (
	memKindHello     byte = 11 // joiner asks for admission
	memKindLeaveReq  byte = 12 // member asks to drain out
	memKindDecision  byte = 13 // leader's transition decision
	memKindReady     byte = 14 // barrier: quiescence report (frontier + counters)
	memKindInv       byte = 15 // barrier: capability-hold inventory + applied bounds
	memKindDone      byte = 16 // barrier: tracker reset complete
	memKindGoodbye   byte = 17 // leaver's final control frame before its FIN
	memKindMigration byte = 18 // leader's rendered scripted-migration schedule
)

// memStep is one step of the membership timeline: from epoch `from` onward,
// roster slot p participates iff active[p].
type memStep struct {
	from   core.Time
	active []bool
}

// barSnap is one participant's quiescence report.
type barSnap struct {
	frontier   core.Time
	sent, recv []uint64
}

// invSnap is one participant's hold inventory (with the counters it saw at
// pause time, to certify nothing moved since its ready report) plus the
// applied bounds of its workers, keyed by global worker index.
type invSnap struct {
	barSnap
	batch  progress.Batch
	bounds map[int]core.Time
}

// timedMoves is a move batch every member injects on its local control input
// at the given epoch (duplicates across members canonicalize away).
type timedMoves struct {
	epoch core.Time
	moves []core.Move
}

// residentMove records one drained (injected) move: at `epoch`, bin moved
// from `from` to `to`. The log, together with the resident base, lets the
// controller reconstruct which worker actually held a bin's state at any
// epoch — the assignment mirror alone only knows the scheduled end state.
type residentMove struct {
	epoch    core.Time
	bin      int
	from, to int
}

// MigrationSpec is one scripted migration in membership mode. Every process
// registers the identical spec sequence before its drive loop starts (so a
// leader failover re-renders the same script); only the leader renders it
// into a fixed-epoch move schedule and broadcasts the result.
type MigrationSpec struct {
	// At is the earliest epoch the leader may decide this migration.
	At core.Time
	// Strategy and Batch render the diff into a plan, as in Build.
	Strategy Strategy
	Batch    int
	// Target returns the destination assignment given the current mirror and
	// the live worker set at decision time. It must be a pure function of its
	// arguments (leader failover may re-evaluate it), and may return nil to
	// skip the migration.
	Target func(current Assignment, liveWorkers []int) Assignment
}

// scriptedMig pairs a registered spec with its registration sequence number,
// which identifies it across processes in migration frames.
type scriptedMig struct {
	seq  uint64
	spec MigrationSpec
}

// MembershipController runs one process's half of the membership protocol.
// The drive loop owns Tick, NextCommit, RunBarrier, CommitDrain, MovesAt and
// Covered; the bus's serialized handler owns inbound frames. The two sides
// meet under mu (barrier collections, decisions) and the detector's atomics.
type MembershipController struct {
	opts MembershipOptions
	// det is the process's failure detector and election. loads is the
	// autoscaler's telemetry half (nil without Autoscale); it shares det.
	det   *detector
	loads *sampler

	mu   sync.Mutex
	cond *sync.Cond

	active   []bool // current (latest-decided) membership
	timeline []memStep
	memEpoch uint64
	assign   Assignment // mirror of the scheduled end-state bin assignment

	// resident is the assignment as actually executed so far: it advances
	// only when MovesAt drains an injection, and moveLog records each such
	// move. assign always equals resident with every pending injection
	// applied in epoch order (rebuildMirrorLocked maintains the invariant).
	resident Assignment
	moveLog  []residentMove
	// residencyFloor is the first epoch this process witnessed residency
	// from (0 for founding members, the join commit for a joiner): a crash
	// declaration must restore from a checkpoint at or above it, because the
	// move log below the floor is unknown here.
	residencyFloor core.Time

	pending    *Transition // decided, not yet committed by the drive loop
	settleAt   core.Time   // leader: no new decision until the loop passes this
	injections []timedMoves

	scripted []scriptedMig // registered migrations not yet rendered

	helloFrom  int // joiner slot awaiting admission; -1 none
	leaveFrom  int // member asking to drain; -1 none
	deadGone   []bool
	everActive []bool // slots that were ever live (drained-silent detection)

	// Autoscale state: whether a telemetry window completed since the last
	// evaluation (ticking goroutine only), and the streak counters behind
	// the Sustain gate.
	freshWindow           bool
	hotStreak, coldStreak int

	joinDecision *Transition // joiner side: our own admission

	lastTick  atomic.Int64 // the drive loop's epoch at its latest Tick
	guardTill core.Time    // fresh leader: no decision until the loop passes this

	// Barrier collections, keyed by commit epoch (a fast peer may report for
	// a barrier this process has not entered yet).
	ready   map[core.Time]map[int]*barSnap
	invs    map[core.Time]map[int]*invSnap
	resetOK map[core.Time]map[int]bool
}

// NewMembershipController validates the options, seeds the timeline from the
// initial membership, and registers the detector's dispatcher on the bus with
// the membership plane (and, with Autoscale, the telemetry plane) attached.
func NewMembershipController(opts MembershipOptions) *MembershipController {
	if opts.Fabric == nil || opts.Frontier == nil {
		panic("plan: MembershipOptions needs Fabric and Frontier")
	}
	if opts.WorkersPerProc <= 0 || opts.Bins <= 0 {
		panic("plan: MembershipOptions needs WorkersPerProc and Bins")
	}
	if opts.InitialActive != nil && len(opts.InitialActive) != opts.Procs {
		panic("plan: MembershipOptions.InitialActive length does not match Procs")
	}
	if opts.Autoscale != nil {
		if opts.Autoscale.Meter == nil {
			panic("plan: MembershipAutoscale needs a LoadMeter for telemetry")
		}
		opts.Autoscale.defaults()
	}
	opts.defaults()
	mc := &MembershipController{
		opts:      opts,
		helloFrom: -1,
		leaveFrom: -1,
		det:       newDetector(opts.ClusterOptions, 1),
		deadGone:  make([]bool, opts.Procs),
		ready:     make(map[core.Time]map[int]*barSnap),
		invs:      make(map[core.Time]map[int]*invSnap),
		resetOK:   make(map[core.Time]map[int]bool),
	}
	mc.cond = sync.NewCond(&mc.mu)
	mc.active = make([]bool, opts.Procs)
	for p := range mc.active {
		mc.active[p] = opts.InitialActive == nil || opts.InitialActive[p]
	}
	mc.everActive = append([]bool(nil), mc.active...)
	mc.timeline = []memStep{{from: 0, active: append([]bool(nil), mc.active...)}}
	// With absent roster slots, the operator's built-in initial assignment
	// (round-robin over the full roster) would own bins with workers that do
	// not exist yet; start from a live-only assignment instead, reached via
	// InitialMoves at the first epoch.
	if live := participantsOf(mc.active); len(live) == opts.Procs {
		mc.assign = Initial(opts.Bins, opts.Procs*opts.WorkersPerProc)
	} else {
		mc.assign = Rebalance(opts.Bins, mc.liveWorkers(live))
	}
	mc.resident = append(Assignment(nil), mc.assign...)
	mc.det.membership = mc.onControl
	if as := opts.Autoscale; as != nil {
		cs := newClusterState(as.Meter, mc.det, opts.WorkersPerProc)
		mc.det.telemetry = cs.onControl
		mc.loads = newSampler(as.Meter, cs, as.SampleEvery)
	}
	mc.det.start()
	return mc
}

// ScheduleMigration registers a scripted migration. Every process must
// register the identical spec sequence before its drive loop starts; the
// leader renders each due spec into a fixed-epoch schedule and broadcasts it
// (memKindMigration), so the move set stays canonical cluster-wide.
func (mc *MembershipController) ScheduleMigration(spec MigrationSpec) {
	if spec.Target == nil {
		panic("plan: MigrationSpec needs a Target function")
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.scripted = append(mc.scripted, scriptedMig{seq: uint64(len(mc.scripted)), spec: spec})
}

// LiveWorkersAt lists the global worker indices of the processes live at the
// given epoch. The checkpoint writer records it in manifests
// (core.CheckpointConfig.LiveAt), making checkpoints taken on a shrunk
// roster complete — and restorable — without the dead slots' manifests.
func (mc *MembershipController) LiveWorkersAt(e core.Time) []int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.liveWorkers(participantsOf(mc.activeAt(e)))
}

// Proc returns this process's roster index.
func (mc *MembershipController) Proc() int { return mc.opts.Proc }

// InitialMoves returns the moves every initially-live process injects at its
// first epoch so no bin starts owned by an absent roster slot (the
// operator's built-in initial assignment spans the full roster). Duplicate
// injections across processes canonicalize away. Empty when the roster
// starts complete.
func (mc *MembershipController) InitialMoves() []core.Move {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return Diff(Initial(mc.opts.Bins, mc.opts.Procs*mc.opts.WorkersPerProc), mc.assign)
}

// Joiner reports whether this process's own roster slot started absent.
func (mc *MembershipController) Joiner() bool {
	return mc.opts.InitialActive != nil && !mc.opts.InitialActive[mc.opts.Proc]
}

// MembershipEpoch returns the current membership view version.
func (mc *MembershipController) MembershipEpoch() uint64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.memEpoch
}

// Assignment returns a copy of the controller's bin-assignment mirror.
func (mc *MembershipController) Assignment() Assignment {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return append(Assignment(nil), mc.assign...)
}

// activeAt returns the membership view governing epoch e.
func (mc *MembershipController) activeAt(e core.Time) []bool {
	for i := len(mc.timeline) - 1; i >= 0; i-- {
		if mc.timeline[i].from <= e {
			return mc.timeline[i].active
		}
	}
	return mc.timeline[0].active
}

// Covered returns the global input slots (worker indices) this process
// drives at epoch e: its own workers' slots, plus a deterministic share of
// the slots belonging to inactive roster processes — every member computes
// the same partition, so each orphan slot is driven exactly once and the
// cluster-wide input multiset per epoch is independent of membership.
func (mc *MembershipController) Covered(e core.Time) []int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	act := mc.activeAt(e)
	if !act[mc.opts.Proc] {
		return nil
	}
	live := participantsOf(act)
	w := mc.opts.WorkersPerProc
	var out []int
	for p, a := range act {
		for i := 0; i < w; i++ {
			g := p*w + i
			if a {
				if p == mc.opts.Proc {
					out = append(out, g)
				}
			} else if live[g%len(live)] == mc.opts.Proc {
				out = append(out, g)
			}
		}
	}
	return out
}

// ReplaySlots partitions the full input slot space among the processes live
// at epoch e; the crash replay uses it so every lost record is re-injected
// by exactly one survivor.
func (mc *MembershipController) ReplaySlots(e core.Time) []int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	live := participantsOf(mc.activeAt(e))
	var out []int
	total := mc.opts.Procs * mc.opts.WorkersPerProc
	for g := 0; g < total; g++ {
		if live[g%len(live)] == mc.opts.Proc {
			out = append(out, g)
		}
	}
	return out
}

// NextCommit returns the decided transition the drive loop has not committed
// yet, or nil. The loop commits it when its epoch reaches Transition.Epoch
// (RunBarrier for join and crash-leave, CommitDrain for drain-leave).
func (mc *MembershipController) NextCommit() *Transition {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.pending
}

// MovesAt removes and returns the control moves every member injects on its
// local control input at epoch e (nil when none). Draining an injection
// advances the resident assignment and appends to the move log, so the
// controller can later tell executed moves apart from still-scheduled ones.
func (mc *MembershipController) MovesAt(e core.Time) []core.Move {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	var out []core.Move
	kept := mc.injections[:0]
	for _, tm := range mc.injections {
		if tm.epoch == e {
			out = append(out, tm.moves...)
		} else {
			kept = append(kept, tm)
		}
	}
	mc.injections = kept
	for _, m := range out {
		if m.IsCheckpoint() || m.Bin < 0 || m.Bin >= len(mc.resident) {
			continue
		}
		if old := mc.resident[m.Bin]; old != m.Worker {
			mc.moveLog = append(mc.moveLog, residentMove{epoch: e, bin: m.Bin, from: old, to: m.Worker})
			mc.resident[m.Bin] = m.Worker
		}
	}
	return out
}

// rebuildMirrorLocked recomputes the assignment mirror as the resident
// assignment with every pending injection applied in epoch order. Called
// after anything changes the injection set.
func (mc *MembershipController) rebuildMirrorLocked() {
	mc.assign = append(mc.assign[:0], mc.resident...)
	idx := make([]int, len(mc.injections))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return mc.injections[idx[a]].epoch < mc.injections[idx[b]].epoch
	})
	for _, i := range idx {
		for _, m := range mc.injections[i].moves {
			if !m.IsCheckpoint() && m.Bin >= 0 && m.Bin < len(mc.assign) {
				mc.assign[m.Bin] = m.Worker
			}
		}
	}
}

// residentAtLocked reconstructs which worker held each bin's state as of
// moves executed strictly before epoch t: the resident base with every move
// log entry at or above t undone, newest first.
func (mc *MembershipController) residentAtLocked(t core.Time) Assignment {
	out := append(Assignment(nil), mc.resident...)
	for i := len(mc.moveLog) - 1; i >= 0; i-- {
		if e := mc.moveLog[i]; e.epoch >= t {
			out[e.bin] = e.from
		}
	}
	return out
}

// Tick runs once per drive-loop epoch: it samples the telemetry plane (when
// configured), advances the detector, and — on the leader — decides any
// pending transition, due scripted migration, or elasticity action.
func (mc *MembershipController) Tick(now core.Time) {
	mc.lastTick.Store(int64(now))
	if mc.loads != nil && mc.loads.tick() {
		mc.freshWindow = true
	}
	mc.det.tick()

	mc.mu.Lock()
	defer mc.mu.Unlock()
	// A recorded request can have been satisfied by a decision made
	// elsewhere (every process records inbound requests, not just the
	// leader that decides them); drop it rather than re-deciding it after
	// a leadership change.
	if mc.helloFrom >= 0 && mc.active[mc.helloFrom] {
		mc.helloFrom = -1
	}
	if mc.leaveFrom >= 0 && !mc.active[mc.leaveFrom] {
		mc.leaveFrom = -1
	}
	// A process that acquires leadership mid-run must wait Margin epochs
	// before deciding, so a dying leader's in-flight decision either surfaces
	// (it was broadcast) or never happened.
	lead, tookOver := mc.det.elect(now, func(q int) bool { return mc.active[q] && !mc.deadGone[q] })
	if tookOver {
		mc.guardTill = now + mc.opts.Margin
	}
	if !lead {
		return
	}
	if mc.pending != nil || now < mc.settleAt || now < mc.guardTill {
		return
	}
	// A crash must be decidable even while a migration's schedule is still
	// in flight (the decision reconciles the pending moves); every other
	// transition waits for the injection queue to drain first, which keeps
	// joins and drains from ever overlapping a migration.
	if dead := mc.deadCandidateLocked(); dead >= 0 {
		mc.decideCrashLocked(now, dead)
		return
	}
	if len(mc.injections) > 0 {
		return
	}
	switch {
	case mc.helloFrom >= 0 && mc.opts.Autoscale == nil:
		mc.decideJoinLocked(now, mc.helloFrom)
	case mc.leaveFrom >= 0:
		mc.decideDrainLocked(now, mc.leaveFrom)
	default:
		if !mc.decideScriptedLocked(now) {
			mc.autoscaleLocked(now)
		}
	}
}

// deadCandidateLocked returns a member to declare dead: silent for more than
// SuspectAfter+DeathAfter windows, not already retired, and either active or
// once-active (a drain-leaver that went silent before its goodbye still holds
// capabilities that wedge the frontier; only a crash declaration with its
// barrier can clear them).
func (mc *MembershipController) deadCandidateLocked() int {
	death := int64(mc.opts.Liveness.SuspectAfter + mc.opts.DeathAfter)
	for q := 0; q < mc.opts.Procs; q++ {
		if !mc.deadGone[q] && mc.everActive[q] && mc.det.silentFor(q) > death {
			return q
		}
	}
	return -1
}

// RequestLeave asks the leader to drain this process out. The request is
// recorded here as every peer records it on receipt, so whichever process
// leads, now or after a failover, decides it. Idempotent; the decision
// arrives like any other and the drive loop commits it at its epoch.
func (mc *MembershipController) RequestLeave() {
	mc.mu.Lock()
	if mc.leaveFrom < 0 {
		mc.leaveFrom = mc.opts.Proc
	}
	mc.mu.Unlock()
	mc.det.broadcast([]byte{memKindLeaveReq})
}

// AwaitAdmission is the joiner's entry point: broadcast the admission request
// and block until the leader's join decision arrives. The caller must then
// advance every local input to the returned transition's epoch and call
// RunBarrier.
func (mc *MembershipController) AwaitAdmission() (*Transition, error) {
	if !mc.Joiner() {
		panic("plan: AwaitAdmission on a process that is not a joiner")
	}
	mc.det.broadcast([]byte{memKindHello})
	deadline := time.Now().Add(mc.opts.BarrierTimeout)
	mc.mu.Lock()
	defer mc.mu.Unlock()
	for mc.joinDecision == nil {
		if !mc.waitLocked(deadline) {
			return nil, fmt.Errorf("plan: process %d: no admission decision within %v", mc.opts.Proc, mc.opts.BarrierTimeout)
		}
	}
	return mc.joinDecision, nil
}

// Goodbye is the leaver's final control frame: the survivors retire the slot
// on receipt. Sent after the leaver observed its drain complete (probe
// frontier past the commit epoch), so per-peer FIFO guarantees every dataflow
// frame it ever sent is already delivered.
func (mc *MembershipController) Goodbye() {
	mc.det.broadcast([]byte{memKindGoodbye})
}

// waitLocked waits on the condition variable with a deadline; returns false
// once the deadline passed. The timer wakes the wait via Broadcast.
func (mc *MembershipController) waitLocked(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.AfterFunc(d, func() {
		mc.mu.Lock()
		mc.cond.Broadcast()
		mc.mu.Unlock()
	})
	mc.cond.Wait()
	t.Stop()
	return time.Now().Before(deadline)
}

// liveWorkers lists the global worker indices of the given processes.
func (mc *MembershipController) liveWorkers(procs []int) []int {
	var out []int
	for _, p := range procs {
		for i := 0; i < mc.opts.WorkersPerProc; i++ {
			out = append(out, p*mc.opts.WorkersPerProc+i)
		}
	}
	return out
}

// decideJoinLocked renders and broadcasts the admission of `slot`. The seed
// moves replay the resident assignment at the commit epoch — a no-op for the
// members, the routing history for the joiner — and the rebalance moves a
// margin later migrate bins onto the joiner's workers through the ordinary
// prepare/complete migration path. Only called with an empty injection
// queue, so resident and mirror agree.
func (mc *MembershipController) decideJoinLocked(now core.Time, slot int) {
	commit := now + mc.opts.Margin
	after := append([]bool(nil), mc.active...)
	after[slot] = true
	tr := &Transition{Kind: TransitionJoin, Slot: slot, Epoch: commit, MemEpoch: mc.memEpoch + 1}
	seed := Diff(Initial(mc.opts.Bins, mc.opts.Procs*mc.opts.WorkersPerProc), mc.resident)
	rebal := Diff(mc.resident, Rebalance(mc.opts.Bins, mc.liveWorkers(participantsOf(after))))
	mc.helloFrom = -1
	mc.broadcastDecisionLocked(tr, []timedMoves{{commit, seed}, {commit + mc.opts.Margin, rebal}})
}

// decideDrainLocked renders and broadcasts the departure of `slot`: its bins
// move round-robin onto the survivors at the commit epoch.
func (mc *MembershipController) decideDrainLocked(now core.Time, slot int) {
	commit := now + mc.opts.Margin
	after := append([]bool(nil), mc.active...)
	after[slot] = false
	tr := &Transition{Kind: TransitionDrain, Slot: slot, Epoch: commit, MemEpoch: mc.memEpoch + 1}
	mc.leaveFrom = -1
	mc.broadcastDecisionLocked(tr, []timedMoves{{commit, mc.reassignLocked(slot, after)}})
}

// decideCrashLocked declares `slot` dead, provided a complete checkpoint
// exists to rebuild its bins from (without one the state is unrecoverable,
// so declaration waits for the next checkpoint to complete — and, under
// roster-aware completeness, a checkpoint whose live roster still lists the
// dead slot can only complete with its manifests, so a death during a
// checkpoint's commit defers to the next full epoch). Unlike joins and
// drains, a crash may be decided while a migration schedule is in flight:
// the decision classifies every bin the dead slot's state ever touched since
// the checkpoint as lost, restores those from the checkpoint, and rewrites
// the still-pending moves so none ships state into the retired slot.
func (mc *MembershipController) decideCrashLocked(now core.Time, slot int) {
	if mc.opts.CheckpointDir == "" {
		panic(fmt.Sprintf("plan: process %d is dead but membership has no CheckpointDir to restore from (run with checkpointing enabled)", slot))
	}
	peers := mc.opts.Procs * mc.opts.WorkersPerProc
	ckpt, _, ok, err := core.LatestCheckpoint(mc.opts.CheckpointDir, peers)
	if err != nil {
		panic(fmt.Sprintf("plan: scanning %s for a checkpoint to restore process %d from: %v", mc.opts.CheckpointDir, slot, err))
	}
	if !ok {
		mc.det.logf("megaphone: process %d is dead but no complete checkpoint exists yet; deferring declaration", slot)
		return
	}
	if ckpt < mc.residencyFloor {
		mc.det.logf("megaphone: process %d is dead but the latest complete checkpoint (epoch %d) predates this leader's admission (epoch %d); deferring declaration",
			slot, ckpt, mc.residencyFloor)
		return
	}
	commit := now + mc.opts.Margin
	after := append([]bool(nil), mc.active...)
	after[slot] = false
	tr := &Transition{Kind: TransitionCrash, Slot: slot, Epoch: commit, MemEpoch: mc.memEpoch + 1, Ckpt: ckpt}
	moves := mc.crashReassignLocked(slot, after, ckpt, commit)
	for _, m := range moves {
		tr.DeadBins = append(tr.DeadBins, m.Bin)
	}
	mc.broadcastDecisionLocked(tr, []timedMoves{{commit, moves}})
}

// crashReassignLocked classifies the bins lost with `slot` and renders their
// restore moves. A bin is lost when its state is not reliably held by a
// survivor: it resides on the dead slot, or any executed move at or after the
// checkpoint epoch touched it (its state transited mid-flight machinery the
// dead slot participated in — restoring from the checkpoint and replaying is
// always correct, so the classification is deliberately conservative), or a
// still-pending move targets the dead slot (the ship would land in the
// void). Restore targets round-robin over the survivors' workers, skipping a
// bin's owner-at-commit: the engine only executes a restore at a worker that
// did not already own the bin, so restoring in place would silently keep the
// live (possibly incomplete) state while the replay double-applied on top.
func (mc *MembershipController) crashReassignLocked(slot int, after []bool, ckpt, commit core.Time) []core.Move {
	w := mc.opts.WorkersPerProc
	lost := make([]bool, len(mc.assign))
	for b, owner := range mc.resident {
		if owner/w == slot {
			lost[b] = true
		}
	}
	for _, e := range mc.moveLog {
		if e.epoch >= ckpt {
			lost[e.bin] = true
		}
	}
	for _, tm := range mc.injections {
		for _, m := range tm.moves {
			if !m.IsCheckpoint() && m.Worker >= 0 && m.Worker/w == slot {
				lost[m.Bin] = true
			}
		}
	}
	// Owner at the commit epoch: resident plus every pending move below the
	// commit (they will have executed by the time the restores do).
	cur := append(Assignment(nil), mc.resident...)
	for _, tm := range mc.injections {
		if tm.epoch >= commit {
			continue
		}
		for _, m := range tm.moves {
			if !m.IsCheckpoint() && m.Bin >= 0 && m.Bin < len(cur) {
				cur[m.Bin] = m.Worker
			}
		}
	}
	lw := mc.liveWorkers(participantsOf(after))
	var moves []core.Move
	i := 0
	for b := range lost {
		if !lost[b] {
			continue
		}
		nw := lw[i%len(lw)]
		i++
		if nw == cur[b] {
			if len(lw) < 2 {
				// A single surviving worker already owning the bin: the
				// restore could never execute. Leave the bin on its live
				// state (only reachable in 1-worker-per-process fixtures).
				mc.det.logf("megaphone: bin %d survives on the only remaining worker %d; skipping its restore", b, nw)
				continue
			}
			nw = lw[i%len(lw)]
			i++
		}
		moves = append(moves, core.RestoreMove(b, nw, ckpt))
	}
	return moves
}

// reassignLocked computes the moves that take slot's bins away round-robin
// onto the remaining members' workers (the drain-leave path; only called
// with an empty injection queue, so mirror and residency agree).
func (mc *MembershipController) reassignLocked(slot int, after []bool) []core.Move {
	lw := mc.liveWorkers(participantsOf(after))
	var moves []core.Move
	for b, owner := range mc.assign {
		if owner/mc.opts.WorkersPerProc == slot {
			moves = append(moves, core.Move{Bin: b, Worker: lw[len(moves)%len(lw)]})
		}
	}
	return moves
}

// decideScriptedLocked renders the next due scripted migration (if any) into
// a fixed-epoch move schedule and broadcasts it. Returns whether a migration
// was issued. Frontier-paced stepping (the Controller's contract) is not
// available here — every process must inject the identical moves at the
// identical epochs — so steps land a fixed stride apart instead: one epoch
// plus the step's own gap.
func (mc *MembershipController) decideScriptedLocked(now core.Time) bool {
	for len(mc.scripted) > 0 {
		sm := mc.scripted[0]
		if sm.spec.At > now {
			return false
		}
		cur := append(Assignment(nil), mc.assign...)
		tgt := sm.spec.Target(cur, mc.liveWorkers(participantsOf(mc.active)))
		var pl Plan
		if tgt != nil {
			pl = Build(sm.spec.Strategy, mc.assign, tgt, sm.spec.Batch)
		}
		commit := now + mc.opts.Margin
		var schedule []timedMoves
		at := commit
		for _, st := range pl.Steps {
			schedule = append(schedule, timedMoves{epoch: at, moves: st.Moves})
			at++
			if st.Gap {
				at++
			}
		}
		// Broadcast even an empty schedule: it retires the spec's sequence
		// number on every process, so a failed-over leader cannot re-render a
		// migration its predecessor already decided was a no-op.
		mc.broadcastMigrationLocked(sm.seq, schedule)
		if len(schedule) > 0 {
			mc.det.logf("megaphone: process %d issued scripted migration %d: %d steps over epochs [%d, %d]",
				mc.opts.Proc, sm.seq, len(schedule), commit, at-1)
			return true
		}
	}
	return false
}

// autoscaleLocked is the leader's elasticity evaluator: once per completed
// telemetry window it compares the mean per-live-worker record volume
// against the hot and cold thresholds, and on a sustained signal admits the
// registered standby (scale-out, priced by the cost model) or drain-leaves
// the coldest member (scale-in).
func (mc *MembershipController) autoscaleLocked(now core.Time) {
	as := mc.opts.Autoscale
	if as == nil {
		return
	}
	// A window missing a live peer's rows reads as a phantom imbalance: wait
	// for the next one.
	if !mc.freshWindow || !mc.loads.cluster.covered() {
		return
	}
	mc.freshWindow = false
	window, cumulative := mc.loads.window, mc.loads.prev
	live := participantsOf(mc.active)
	lw := mc.liveWorkers(live)
	var total uint64
	for _, w := range lw {
		total += window.WorkerRecs[w]
	}
	mean := total / uint64(len(lw))
	if as.HotRecs > 0 && mean >= as.HotRecs {
		mc.hotStreak++
	} else {
		mc.hotStreak = 0
	}
	if as.ColdRecs > 0 && mean <= as.ColdRecs {
		mc.coldStreak++
	} else {
		mc.coldStreak = 0
	}
	switch {
	case mc.hotStreak >= as.Sustain && mc.helloFrom >= 0:
		slot := mc.helloFrom
		after := append([]bool(nil), mc.active...)
		after[slot] = true
		if as.Cost != nil {
			tgt := Rebalance(mc.opts.Bins, mc.liveWorkers(participantsOf(after)))
			if v := as.Cost.Evaluate(mc.assign, tgt, window, cumulative, mc.hotStreak); !v.Migrate {
				mc.det.logf("megaphone: process %d: saturation sustained but the cost model declined admitting standby %d (%s: volume %d, gain %d)",
					mc.opts.Proc, slot, v.Reason, v.VolumeRecs, v.GainNanos)
				mc.hotStreak = 0
				return
			}
		}
		mc.det.logf("megaphone: process %d: cluster saturated for %d windows (mean %d recs/worker ≥ %d); admitting standby %d",
			mc.opts.Proc, mc.hotStreak, mean, as.HotRecs, slot)
		mc.hotStreak, mc.coldStreak = 0, 0
		mc.decideJoinLocked(now, slot)
	case mc.coldStreak >= as.Sustain && len(live) > as.MinProcs && mc.helloFrom < 0:
		coldest, coldRecs := -1, uint64(0)
		for _, p := range live {
			var recs uint64
			for i := 0; i < mc.opts.WorkersPerProc; i++ {
				recs += window.WorkerRecs[p*mc.opts.WorkersPerProc+i]
			}
			if coldest < 0 || recs < coldRecs {
				coldest, coldRecs = p, recs
			}
		}
		mc.det.logf("megaphone: process %d: cluster underloaded for %d windows (mean %d recs/worker ≤ %d); drain-leaving coldest member %d (%d recs)",
			mc.opts.Proc, mc.coldStreak, mean, as.ColdRecs, coldest, coldRecs)
		mc.hotStreak, mc.coldStreak = 0, 0
		mc.decideDrainLocked(now, coldest)
	}
}

func participantsOf(active []bool) []int {
	var out []int
	for p, a := range active {
		if a {
			out = append(out, p)
		}
	}
	return out
}

// appendSchedule encodes a [count]{[epoch][nmoves][moves]} move schedule.
func appendSchedule(buf []byte, schedule []timedMoves) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(schedule)))
	for _, tm := range schedule {
		buf = binenc.AppendUvarint(buf, uint64(tm.epoch))
		buf = binenc.AppendUvarint(buf, uint64(len(tm.moves)))
		for i := range tm.moves {
			buf = tm.moves[i].AppendBinaryRec(buf)
		}
	}
	return buf
}

// broadcastDecisionLocked encodes, broadcasts, and locally applies one
// decision.
func (mc *MembershipController) broadcastDecisionLocked(tr *Transition, schedule []timedMoves) {
	buf := []byte{memKindDecision}
	buf = binenc.AppendUvarint(buf, uint64(tr.Kind))
	buf = binenc.AppendUvarint(buf, uint64(tr.Slot))
	buf = binenc.AppendUvarint(buf, uint64(tr.Epoch))
	buf = binenc.AppendUvarint(buf, tr.MemEpoch)
	buf = binenc.AppendUvarint(buf, uint64(tr.Ckpt))
	mc.det.broadcast(appendSchedule(buf, schedule))
	mc.det.logf("megaphone: process %d decided %v of process %d at epoch %d (membership epoch %d, checkpoint %d)",
		mc.opts.Proc, tr.Kind, tr.Slot, tr.Epoch, tr.MemEpoch, tr.Ckpt)
	mc.applyDecisionLocked(tr, schedule)
}

// broadcastMigrationLocked encodes and broadcasts a rendered migration
// schedule, then applies it locally.
func (mc *MembershipController) broadcastMigrationLocked(seq uint64, schedule []timedMoves) {
	buf := binenc.AppendUvarint([]byte{memKindMigration}, seq)
	mc.det.broadcast(appendSchedule(buf, schedule))
	mc.applyMigrationLocked(seq, schedule)
}

// applyMigrationLocked installs a rendered migration schedule: retire the
// spec's sequence number, queue the injections, and rebuild the mirror. Runs
// on the decider and, via onControl, on every member.
func (mc *MembershipController) applyMigrationLocked(seq uint64, schedule []timedMoves) {
	if len(schedule) > 0 {
		if last := core.Time(mc.lastTick.Load()); schedule[0].epoch <= last {
			panic(fmt.Sprintf("plan: process %d received a migration schedule starting at epoch %d but its loop is already at %d; raise the membership margin",
				mc.opts.Proc, schedule[0].epoch, last))
		}
	}
	kept := mc.scripted[:0]
	for _, sm := range mc.scripted {
		if sm.seq != seq {
			kept = append(kept, sm)
		}
	}
	mc.scripted = kept
	mc.injections = append(mc.injections, schedule...)
	mc.rebuildMirrorLocked()
}

// applyDecisionLocked applies one decision to the local state: timeline and
// view, assignment mirror, move injections, peer retirement, and the pending
// commit the drive loop will pick up. Runs on the decider and, via
// onControl, on every member that receives the broadcast.
func (mc *MembershipController) applyDecisionLocked(tr *Transition, schedule []timedMoves) {
	if last := core.Time(mc.lastTick.Load()); tr.Epoch <= last {
		panic(fmt.Sprintf("plan: process %d received a %v decision committing at epoch %d but its loop is already at %d; raise the membership margin",
			mc.opts.Proc, tr.Kind, tr.Epoch, last))
	}
	after := append([]bool(nil), mc.active...)
	after[tr.Slot] = tr.Kind == TransitionJoin
	mc.timeline = append(mc.timeline, memStep{from: tr.Epoch, active: after})
	mc.active = after
	mc.memEpoch = tr.MemEpoch
	viewFrom := tr.Epoch
	if tr.Kind == TransitionDrain {
		// The drain moves are broadcast at the commit epoch and the leaver
		// itself must execute them — it is the worker that ships the departing
		// bins' state. A view excluding it at that exact epoch would make the
		// broadcast pact skip it, so the engine view flips one epoch later.
		// The plan timeline above still flips at the commit epoch: input
		// coverage hands over exactly there.
		viewFrom++
	}
	mc.opts.Fabric.InstallView(viewFrom, after)
	mc.opts.Fabric.SetMembershipEpoch(tr.MemEpoch)
	if tr.Kind == TransitionCrash {
		mc.reconcilePendingLocked(tr, schedule)
	}
	mc.injections = append(mc.injections, schedule...)
	switch tr.Kind {
	case TransitionCrash:
		// Stop queueing frames to the dead slot immediately; the barrier at
		// the commit epoch wipes the resulting phantom message counts.
		mc.deadGone[tr.Slot] = true
		mc.opts.Fabric.RetirePeer(tr.Slot)
		// Move-log entries below the restore checkpoint can never matter
		// again (every later declaration restores from an epoch at or above
		// this one — checkpoints only move forward).
		keptLog := mc.moveLog[:0]
		for _, e := range mc.moveLog {
			if e.epoch >= tr.Ckpt {
				keptLog = append(keptLog, e)
			}
		}
		mc.moveLog = keptLog
	case TransitionJoin:
		// The joiner starts its heartbeat clock now; give it a fresh window.
		mc.everActive[tr.Slot] = true
		mc.det.heardFrom(tr.Slot)
		if tr.Slot == mc.opts.Proc {
			// Our own admission: the seed moves replay the leader's resident
			// assignment over the operator's built-in initial one, so that is
			// the residency base to apply them to. History below the commit
			// epoch is unknown here — the floor records that.
			mc.resident = Initial(mc.opts.Bins, mc.opts.Procs*mc.opts.WorkersPerProc)
			mc.moveLog = nil
			mc.residencyFloor = tr.Epoch
		}
	}
	mc.rebuildMirrorLocked()
	if mc.helloFrom == tr.Slot && mc.active[tr.Slot] {
		mc.helloFrom = -1
	}
	if mc.leaveFrom == tr.Slot && !mc.active[tr.Slot] {
		mc.leaveFrom = -1
	}
	mc.settleAt = tr.Epoch + 2*mc.opts.Margin
	if tr.Kind == TransitionJoin && tr.Slot == mc.opts.Proc {
		mc.joinDecision = tr
	} else {
		mc.pending = tr
	}
	mc.cond.Broadcast()
}

// reconcilePendingLocked rewrites the not-yet-drained injection queue of a
// crash decision so no surviving move ships state into the retired slot, and
// no move collides with a restore at the commit epoch. Three regimes, keyed
// by each batch's epoch against the commit:
//
//   - below: left untouched. The margin only guarantees batches at or above
//     the commit are undrained everywhere, so rewriting earlier ones could
//     diverge from a process that already injected the originals — and the
//     canonical-move-set invariant (same epoch, same bin, same target on
//     every process) is load-bearing. A ship into the dead slot lands in the
//     void; the bin is in the lost set and its restore rebuilds it.
//   - at the commit: moves whose bin is being restored are dropped. Keeping
//     them would put a plain move and a restore for the same bin at the same
//     epoch, and the old owner's ship would race the checkpoint install.
//   - above: moves targeting the dead slot are redirected to the bin's
//     restore target, where they degrade to no-ops (the engine skips a move
//     whose target already owns the bin).
func (mc *MembershipController) reconcilePendingLocked(tr *Transition, schedule []timedMoves) {
	w := mc.opts.WorkersPerProc
	rt := make(map[int]int)
	for _, tm := range schedule {
		for _, m := range tm.moves {
			if !m.IsCheckpoint() {
				rt[m.Bin] = m.Worker
			}
		}
	}
	for ti := range mc.injections {
		tm := &mc.injections[ti]
		switch {
		case tm.epoch < tr.Epoch:
		case tm.epoch == tr.Epoch:
			kept := tm.moves[:0]
			for _, m := range tm.moves {
				if _, restored := rt[m.Bin]; restored && !m.IsCheckpoint() {
					continue
				}
				kept = append(kept, m)
			}
			tm.moves = kept
		default:
			for i := range tm.moves {
				m := &tm.moves[i]
				if m.IsCheckpoint() || m.Worker < 0 || m.Worker/w != tr.Slot {
					continue
				}
				if nw, ok := rt[m.Bin]; ok {
					m.Worker = nw
				} else {
					// Only reachable through the single-surviving-worker
					// degenerate case, where the restore was skipped: pin the
					// bin where its state lives.
					m.Worker = mc.resident[m.Bin]
				}
			}
		}
	}
}

// CommitDrain marks a drain-leave transition committed: the drive loop calls
// it at the commit epoch, right before injecting the drain moves MovesAt
// returns for that epoch. No barrier runs — the leaver retires its holds via
// ordinary progress broadcasts as its inputs close.
func (mc *MembershipController) CommitDrain(tr *Transition) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.pending == tr {
		mc.pending = nil
	}
}

// RunBarrier executes the membership barrier of a join or crash-leave
// transition on the drive-loop goroutine. On entry every local input handle
// must already be advanced to tr.Epoch (the joiner's pre-advanced from its
// initial epoch). On return the transition is committed: workers resumed,
// membership view active, tracker rebuilt. For crash-leave the caller must
// then re-inject the purged window per BarrierResult.Cut.
func (mc *MembershipController) RunBarrier(tr *Transition) BarrierResult {
	deadline := time.Now().Add(mc.opts.BarrierTimeout)
	parts := func() []int {
		mc.mu.Lock()
		defer mc.mu.Unlock()
		return participantsOf(mc.activeAt(tr.Epoch))
	}()
	joining := tr.Kind == TransitionJoin && tr.Slot == mc.opts.Proc

	// Phase 1: quiescence. Broadcast (frontier, counters) rounds until every
	// participant reports, the reports match pairwise, and nothing changed
	// across two consecutive rounds. A joiner's own tracker holds only
	// pre-admission garbage, so it reports the commit epoch as its frontier;
	// the members report their real probe frontier, which at quiescence is
	// the commit epoch (join) or the wedged cut (crash-leave).
	var stable map[int]*barSnap
	for tries := 0; ; tries++ {
		snap := mc.reportReady(tr, joining)
		cur := mc.collectReady(tr.Epoch, snap)
		if ok, _ := barrierQuiesced(parts, cur, tr); ok {
			if prevEqual(stable, cur, parts) {
				stable = cur
				break
			}
			stable = cur
		} else {
			stable = nil
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("plan: process %d: %v barrier at epoch %d did not quiesce within %v",
				mc.opts.Proc, tr.Kind, tr.Epoch, mc.opts.BarrierTimeout))
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, cut := barrierQuiesced(parts, stable, tr)

	// Phase 2: pause, purge (crash only), inventory. With workers parked no
	// new dataflow frames can be created, and the stability certificate says
	// none are in flight, so the capability holds now inventoried are the
	// complete global pointstamp multiset. The applied bounds ride along:
	// each worker's state reflects applications up to its own bound, which
	// at a crash sits at or above the wedged cut, and the replay windows
	// must respect every one of them.
	mc.opts.Fabric.Pause()
	bounds := mc.opts.Fabric.AppliedBounds()
	if tr.Kind == TransitionCrash {
		mc.opts.Fabric.PurgeDeferred(cut)
	}
	var inv progress.Batch
	mc.opts.Fabric.HoldInventory(&inv)
	mc.broadcastInventory(tr.Epoch, stable[mc.opts.Proc], &inv, bounds)
	others, allBounds := mc.collectInventories(tr.Epoch, parts, stable, deadline, &inv, bounds)

	// Phase 3: rebuild the tracker from the summed inventories and commit
	// the membership. Every participant resets to the same baseline before
	// anyone resumes (phase 4's rendezvous), so no post-reset delta can
	// arrive at a participant that has not reset yet.
	mc.opts.Fabric.ResetProgress(others)
	if tr.Kind == TransitionJoin {
		mc.opts.Fabric.Activate(tr.Slot)
	}

	// Phase 4: wait for every participant's reset before resuming workers.
	mc.det.broadcast(binenc.AppendUvarint([]byte{memKindDone}, uint64(tr.Epoch)))
	mc.awaitResetDone(tr.Epoch, parts, deadline)
	mc.opts.Fabric.Resume()

	res := BarrierResult{Cut: cut}
	mc.mu.Lock()
	if tr.Kind == TransitionCrash {
		res.BinCut = mc.binCutLocked(tr, cut, allBounds)
	}
	if mc.pending == tr {
		mc.pending = nil
	}
	if joining {
		mc.joinDecision = nil
	}
	delete(mc.ready, tr.Epoch)
	delete(mc.invs, tr.Epoch)
	delete(mc.resetOK, tr.Epoch)
	mc.mu.Unlock()
	mc.det.logf("megaphone: process %d: %v barrier at epoch %d complete (cut %d, membership epoch %d)",
		mc.opts.Proc, tr.Kind, tr.Epoch, cut, tr.MemEpoch)
	return res
}

// binCutLocked renders a crash barrier's per-bin replay boundaries from the
// exchanged applied bounds: the checkpoint epoch for restored bins (their
// state rolled back there), the owner's applied bound for everyone else's
// (its state holds every application below the bound and none above). The
// owner consulted is the one holding the bin's state at pause time — the
// residency as of the restore checkpoint, not the mirror: every bin moved at
// or after the checkpoint is in the restore set anyway, and a bin scheduled
// to move but not yet shipped still has its state (and bound) at the old
// owner. Every participant computes the same boundaries from the same
// exchanged bounds and the same move log. A missing owner bound falls back
// to the wedged cut, which is correct whenever the owner never applied past
// it.
func (mc *MembershipController) binCutLocked(tr *Transition, cut core.Time, bounds map[int]core.Time) []core.Time {
	dead := make(map[int]bool, len(tr.DeadBins))
	for _, b := range tr.DeadBins {
		dead[b] = true
	}
	owners := mc.residentAtLocked(tr.Ckpt)
	out := make([]core.Time, len(owners))
	for b, owner := range owners {
		switch bo, ok := bounds[owner]; {
		case dead[b]:
			out[b] = tr.Ckpt
		case ok:
			out[b] = bo
		default:
			out[b] = cut
		}
	}
	return out
}

// reportReady broadcasts this round's quiescence report and returns it.
func (mc *MembershipController) reportReady(tr *Transition, joining bool) *barSnap {
	sent, recv := mc.opts.Fabric.DataCounters()
	f := mc.opts.Frontier()
	if joining {
		f = tr.Epoch
	}
	buf := []byte{memKindReady}
	buf = binenc.AppendUvarint(buf, uint64(tr.Epoch))
	buf = appendSnap(buf, f, sent, recv)
	mc.det.broadcast(buf)
	return &barSnap{frontier: f, sent: sent, recv: recv}
}

// collectReady merges our own report with the latest received per peer.
func (mc *MembershipController) collectReady(epoch core.Time, own *barSnap) map[int]*barSnap {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	cur := make(map[int]*barSnap, len(mc.ready[epoch])+1)
	for p, s := range mc.ready[epoch] {
		cur[p] = s
	}
	cur[mc.opts.Proc] = own
	return cur
}

// barrierQuiesced evaluates the quiescence conditions over one round's
// reports and, when met, returns the agreed cut: the common frontier of the
// participants at a join (the commit epoch), the minimum of their wedged
// frontiers at a crash.
// Every epoch below the cut is fully applied everywhere; above it,
// applications vary per worker (the frontier wedges at whatever the dead
// process last acknowledged, not at what the survivors have applied), which
// is what the per-worker applied bounds exchanged with the inventories
// account for.
func barrierQuiesced(parts []int, snaps map[int]*barSnap, tr *Transition) (bool, core.Time) {
	var cut core.Time
	for i, p := range parts {
		s := snaps[p]
		if s == nil {
			return false, 0
		}
		switch {
		case i == 0:
			cut = s.frontier
		case tr.Kind == TransitionCrash:
			// Survivors' frontiers need not agree after a crash: the dead
			// process's final progress broadcasts may have reached one
			// survivor and not another, so their trackers diverge by those
			// deltas and wedge at permanently different floors. Demanding
			// equality would never quiesce. The minimum is the sound cut —
			// every epoch below it is fully applied at every survivor — and
			// phase 3's tracker rebuild erases the divergence itself.
			if s.frontier < cut {
				cut = s.frontier
			}
		case s.frontier != cut:
			return false, 0
		}
	}
	if tr.Kind == TransitionJoin && cut != tr.Epoch {
		return false, 0
	}
	for _, p := range parts {
		for _, q := range parts {
			if p == q {
				continue
			}
			if snaps[p].sent[q] != snaps[q].recv[p] {
				return false, 0
			}
		}
	}
	return true, cut
}

// prevEqual reports whether two consecutive rounds' reports are identical
// over the participants (the stability half of the Safra certificate).
func prevEqual(prev, cur map[int]*barSnap, parts []int) bool {
	if prev == nil {
		return false
	}
	for _, p := range parts {
		a, b := prev[p], cur[p]
		if a == nil || b == nil || a.frontier != b.frontier {
			return false
		}
		for i := range a.sent {
			if a.sent[i] != b.sent[i] || a.recv[i] != b.recv[i] {
				return false
			}
		}
	}
	return true
}

// broadcastInventory ships this process's hold inventory and applied bounds,
// tagged with the counters from its stable ready report so receivers can
// certify nothing moved in between.
func (mc *MembershipController) broadcastInventory(epoch core.Time, snap *barSnap, inv *progress.Batch, bounds map[int]core.Time) {
	buf := []byte{memKindInv}
	buf = binenc.AppendUvarint(buf, uint64(epoch))
	buf = appendSnap(buf, snap.frontier, snap.sent, snap.recv)
	buf = binenc.AppendUvarint(buf, uint64(len(bounds)))
	for w, b := range bounds {
		buf = binenc.AppendUvarint(buf, uint64(w))
		buf = binenc.AppendUvarint(buf, uint64(b))
	}
	buf = inv.AppendWire(buf)
	mc.det.broadcast(buf)
}

// collectInventories waits for every other participant's inventory, verifies
// its counters still match the stability certificate, and folds all deltas
// (including our own) into one batch and all applied bounds into one map.
func (mc *MembershipController) collectInventories(epoch core.Time, parts []int, stable map[int]*barSnap, deadline time.Time, own *progress.Batch, ownBounds map[int]core.Time) (*progress.Batch, map[int]core.Time) {
	sum := &progress.Batch{}
	sum.Deltas = append(sum.Deltas, own.Deltas...)
	bounds := make(map[int]core.Time, len(ownBounds)*len(parts))
	for w, b := range ownBounds {
		bounds[w] = b
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	for _, p := range parts {
		if p == mc.opts.Proc {
			continue
		}
		for mc.invs[epoch][p] == nil {
			if !mc.waitLocked(deadline) {
				panic(fmt.Sprintf("plan: process %d: no hold inventory from process %d for the barrier at epoch %d within %v",
					mc.opts.Proc, p, epoch, mc.opts.BarrierTimeout))
			}
		}
		is := mc.invs[epoch][p]
		want := stable[p]
		for i := range is.sent {
			if is.sent[i] != want.sent[i] || is.recv[i] != want.recv[i] {
				panic(fmt.Sprintf("plan: process %d: process %d's frame counters moved between quiescence and pause at the barrier at epoch %d",
					mc.opts.Proc, p, epoch))
			}
		}
		sum.Deltas = append(sum.Deltas, is.batch.Deltas...)
		for w, b := range is.bounds {
			bounds[w] = b
		}
	}
	return sum, bounds
}

// awaitResetDone blocks until every other participant confirmed its tracker
// reset for the barrier at the given epoch.
func (mc *MembershipController) awaitResetDone(epoch core.Time, parts []int, deadline time.Time) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	for _, p := range parts {
		if p == mc.opts.Proc {
			continue
		}
		for !mc.resetOK[epoch][p] {
			if !mc.waitLocked(deadline) {
				panic(fmt.Sprintf("plan: process %d: process %d did not confirm its tracker reset for the barrier at epoch %d within %v",
					mc.opts.Proc, p, epoch, mc.opts.BarrierTimeout))
			}
		}
	}
}

func appendSnap(buf []byte, f core.Time, sent, recv []uint64) []byte {
	buf = binenc.AppendUvarint(buf, uint64(f))
	buf = binenc.AppendUvarint(buf, uint64(len(sent)))
	for _, v := range sent {
		buf = binenc.AppendUvarint(buf, v)
	}
	for _, v := range recv {
		buf = binenc.AppendUvarint(buf, v)
	}
	return buf
}

// parseSnap decodes a quiescence report; its counters must span the roster
// (the barrier indexes them by process).
func parseSnap(data []byte, procs int) (*barSnap, []byte, error) {
	f, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	n64, data, err := binenc.Count(data, 2)
	if err != nil {
		return nil, nil, err
	}
	n := int(n64)
	if n != procs {
		return nil, nil, fmt.Errorf("frame counters for %d processes, roster has %d", n, procs)
	}
	s := &barSnap{frontier: core.Time(f), sent: make([]uint64, n), recv: make([]uint64, n)}
	for i := 0; i < n; i++ {
		if s.sent[i], data, err = binenc.Uvarint(data); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < n; i++ {
		if s.recv[i], data, err = binenc.Uvarint(data); err != nil {
			return nil, nil, err
		}
	}
	return s, data, nil
}

// parseInventory decodes a hold inventory (sans kind byte and epoch).
func parseInventory(data []byte, procs int) (*invSnap, error) {
	s, data, err := parseSnap(data, procs)
	if err != nil {
		return nil, err
	}
	nb, data, err := binenc.Count(data, 2)
	if err != nil {
		return nil, err
	}
	is := &invSnap{barSnap: *s, bounds: make(map[int]core.Time, nb)}
	for i := uint64(0); i < nb; i++ {
		var w, b uint64
		if w, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if b, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		is.bounds[int(w)] = core.Time(b)
	}
	return is, is.batch.DecodeWire(data)
}

// onControl handles one inbound membership frame. Runs on the bus's
// serialized handler context. A frame that does not parse, or that names a
// slot, bin or worker outside the roster, is logged and dropped: one flipped
// bit on the control channel must not kill a survivor, and a barrier frame
// lost this way surfaces as the barrier's own timeout.
func (mc *MembershipController) onControl(from int, payload []byte) {
	kind, body := payload[0], payload[1:]
	mc.mu.Lock()
	defer mc.mu.Unlock()
	var err error
	switch kind {
	case memKindHello:
		if !mc.active[from] && !mc.deadGone[from] {
			mc.helloFrom = from
		}
	case memKindLeaveReq:
		if mc.active[from] {
			mc.leaveFrom = from
		}
	case memKindGoodbye:
		if mc.active[from] || !mc.deadGone[from] {
			mc.deadGone[from] = true
			mc.opts.Fabric.RetirePeer(from)
			mc.det.logf("megaphone: process %d: process %d said goodbye; retired", mc.opts.Proc, from)
		}
	case memKindDecision:
		var tr *Transition
		var schedule []timedMoves
		if tr, schedule, err = mc.parseDecision(body); err == nil {
			mc.applyDecisionLocked(tr, schedule)
		}
	case memKindMigration:
		var seq uint64
		var schedule []timedMoves
		if seq, body, err = binenc.Uvarint(body); err == nil {
			if schedule, err = mc.parseSchedule(body); err == nil {
				mc.applyMigrationLocked(seq, schedule)
			}
		}
	case memKindReady, memKindInv, memKindDone:
		err = mc.onBarrierLocked(kind, from, body)
	default:
		err = fmt.Errorf("unknown payload kind")
	}
	if err != nil {
		mc.det.logf("megaphone: process %d: dropping membership frame (kind %d) from %d: %v", mc.opts.Proc, kind, from, err)
	}
}

// onBarrierLocked files one barrier frame under its commit epoch and wakes
// the barrier waiting on it.
func (mc *MembershipController) onBarrierLocked(kind byte, from int, body []byte) error {
	e, rest, err := binenc.Uvarint(body)
	if err != nil {
		return err
	}
	epoch := core.Time(e)
	switch kind {
	case memKindReady:
		s, _, err := parseSnap(rest, mc.opts.Procs)
		if err != nil {
			return err
		}
		if mc.ready[epoch] == nil {
			mc.ready[epoch] = make(map[int]*barSnap)
		}
		mc.ready[epoch][from] = s
	case memKindInv:
		is, err := parseInventory(rest, mc.opts.Procs)
		if err != nil {
			return err
		}
		if mc.invs[epoch] == nil {
			mc.invs[epoch] = make(map[int]*invSnap)
		}
		mc.invs[epoch][from] = is
	case memKindDone:
		if mc.resetOK[epoch] == nil {
			mc.resetOK[epoch] = make(map[int]bool)
		}
		mc.resetOK[epoch][from] = true
	}
	mc.cond.Broadcast()
	return nil
}

// parseSchedule decodes a [count]{[epoch][nmoves][moves]} move schedule, as
// appended by both decision and migration frames. It rejects a move outside
// the bin or worker space (the mirror and the reconciliation index by both)
// and epoch 0, which no schedule holds: each starts a margin past a tick.
func (mc *MembershipController) parseSchedule(data []byte) ([]timedMoves, error) {
	workers := mc.opts.Procs * mc.opts.WorkersPerProc
	ns, data, err := binenc.Count(data, 2)
	if err != nil {
		return nil, err
	}
	var schedule []timedMoves
	for s := uint64(0); s < ns; s++ {
		var e, nm uint64
		if e, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if nm, data, err = binenc.Count(data, 3); err != nil {
			return nil, err
		}
		if e == 0 {
			return nil, fmt.Errorf("schedule step at epoch 0")
		}
		tm := timedMoves{epoch: core.Time(e), moves: make([]core.Move, nm)}
		for i := range tm.moves {
			m := &tm.moves[i]
			if data, err = m.DecodeBinaryRec(data); err != nil {
				return nil, err
			}
			if !m.IsCheckpoint() && (m.Bin < 0 || m.Bin >= mc.opts.Bins || m.Worker < 0 || m.Worker >= workers) {
				return nil, fmt.Errorf("move of bin %d to worker %d outside %d bins x %d workers", m.Bin, m.Worker, mc.opts.Bins, workers)
			}
		}
		schedule = append(schedule, tm)
	}
	return schedule, nil
}

// parseDecision decodes a decision frame (sans kind byte), rejecting a
// transition kind or roster slot that does not exist.
func (mc *MembershipController) parseDecision(data []byte) (*Transition, []timedMoves, error) {
	var k, slot, epoch, mem, ckpt uint64
	var err error
	if k, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if slot, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if epoch, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if mem, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	if ckpt, data, err = binenc.Uvarint(data); err != nil {
		return nil, nil, err
	}
	tr := &Transition{Kind: TransitionKind(k), Slot: int(slot), Epoch: core.Time(epoch), MemEpoch: mem, Ckpt: core.Time(ckpt)}
	if tr.Kind < TransitionJoin || tr.Kind > TransitionCrash || tr.Slot < 0 || tr.Slot >= mc.opts.Procs || tr.Epoch == 0 {
		return nil, nil, fmt.Errorf("%v of slot %d in a roster of %d committing at epoch %d", tr.Kind, tr.Slot, mc.opts.Procs, tr.Epoch)
	}
	schedule, err := mc.parseSchedule(data)
	if err != nil {
		return nil, nil, err
	}
	if tr.Kind == TransitionCrash {
		for _, tm := range schedule {
			for _, m := range tm.moves {
				if m.IsRestore() {
					tr.DeadBins = append(tr.DeadBins, m.Bin)
				}
			}
		}
	}
	return tr, schedule, nil
}
