package plan_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/plan"
	"megaphone/internal/progress"
)

// fakeFabric records every call the membership protocol makes against the
// runtime, and hands each process one distinctive capability-hold delta so the
// barrier's inventory summation is observable.
type fakeFabric struct {
	procs int
	hold  progress.CountDelta

	frontier atomic.Int64 // what Frontier() reports

	mu        sync.Mutex
	events    []string
	views     []fakeView
	retired   []int
	activated []int
	purgeCuts []core.Time
	reset     []progress.CountDelta // deltas of the last ResetProgress batch
	bounds    map[int]core.Time     // what AppliedBounds() reports
}

type fakeView struct {
	from   core.Time
	active []bool
}

func newFakeFabric(proc, procs int) *fakeFabric {
	return &fakeFabric{
		procs: procs,
		hold:  progress.CountDelta{Loc: progress.Location(100 + proc), Time: 7, Delta: proc + 1},
	}
}

func (f *fakeFabric) event(e string) {
	f.mu.Lock()
	f.events = append(f.events, e)
	f.mu.Unlock()
}

func (f *fakeFabric) Pause()  { f.event("pause") }
func (f *fakeFabric) Resume() { f.event("resume") }

func (f *fakeFabric) HoldInventory(b *progress.Batch) {
	b.Add(f.hold.Loc, f.hold.Time, f.hold.Delta)
	f.event("inventory")
}

func (f *fakeFabric) PurgeDeferred(cut core.Time) {
	f.mu.Lock()
	f.purgeCuts = append(f.purgeCuts, cut)
	f.mu.Unlock()
	f.event("purge")
}

func (f *fakeFabric) AppliedBounds() map[int]core.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int]core.Time, len(f.bounds))
	for w, b := range f.bounds {
		out[w] = b
	}
	return out
}

func (f *fakeFabric) ResetProgress(b *progress.Batch) {
	f.mu.Lock()
	f.reset = append([]progress.CountDelta(nil), b.Deltas...)
	f.mu.Unlock()
	f.event("reset")
}

func (f *fakeFabric) InstallView(from core.Time, active []bool) {
	f.mu.Lock()
	f.views = append(f.views, fakeView{from: from, active: append([]bool(nil), active...)})
	f.mu.Unlock()
}

func (f *fakeFabric) Activate(p int) {
	f.mu.Lock()
	f.activated = append(f.activated, p)
	f.mu.Unlock()
	f.event("activate")
}

func (f *fakeFabric) RetirePeer(p int) {
	f.mu.Lock()
	f.retired = append(f.retired, p)
	f.mu.Unlock()
}

func (f *fakeFabric) Err() error { return nil }

func (f *fakeFabric) DataCounters() (sent, recv []uint64) {
	return make([]uint64, f.procs), make([]uint64, f.procs)
}

func (f *fakeFabric) Frontier() core.Time {
	return core.Time(f.frontier.Load())
}

// eventOrder asserts the named events all happened, in the given relative
// order (other events may interleave).
func (f *fakeFabric) eventOrder(t *testing.T, proc int, want ...string) {
	t.Helper()
	f.mu.Lock()
	events := append([]string(nil), f.events...)
	f.mu.Unlock()
	i := 0
	for _, e := range events {
		if i < len(want) && e == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("process %d fabric events %v do not contain %v in order", proc, events, want)
	}
}

func (f *fakeFabric) retiredSlots() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.retired...)
}

// writeFakeCheckpoint fabricates a complete checkpoint at the given epoch:
// completeness is judged per worker against the roster the manifests record
// (core.LatestCheckpoint), which is all the membership controller's
// declaration gate reads. The manifests are real (parseable) but empty of
// bins.
func writeFakeCheckpoint(t *testing.T, dir string, epoch core.Time, workers int) {
	t.Helper()
	ed := filepath.Join(dir, "count", fmt.Sprintf("epoch-%d", epoch))
	if err := os.MkdirAll(ed, 0o777); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		m := core.Manifest{Op: "count", Epoch: uint64(epoch), Worker: w, Peers: workers, Codec: "binary"}
		data, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ed, fmt.Sprintf("manifest-w%d.json", w)), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

type memCluster struct {
	hub  *plan.FakeHub
	fabs []*fakeFabric
	mcs  []*plan.MembershipController
}

func newMemCluster(t *testing.T, procs, wpp, bins int, initialActive []bool, mutate func(p int, o *plan.MembershipOptions)) *memCluster {
	t.Helper()
	c := &memCluster{hub: plan.NewFakeHub(procs)}
	for p := 0; p < procs; p++ {
		fab := newFakeFabric(p, procs)
		opts := plan.MembershipOptions{
			ClusterOptions: plan.ClusterOptions{Bus: c.hub.Buses[p], Procs: procs, Proc: p, WorkersPerProc: wpp, Logf: t.Logf},
			Fabric:         fab,
			Frontier:       fab.Frontier,
			Bins:           bins,
			InitialActive:  initialActive,
			Margin:         4,
		}
		if mutate != nil {
			mutate(p, &opts)
		}
		c.fabs = append(c.fabs, fab)
		c.mcs = append(c.mcs, plan.NewMembershipController(opts))
	}
	return c
}

// TestMembershipInitialAssignment pins the live-only reseed: with absent
// roster slots no bin may start owned by a worker that does not exist yet, and
// InitialMoves must carry every live process from the operator's built-in
// full-roster assignment to the live-only one.
func TestMembershipInitialAssignment(t *testing.T) {
	const procs, wpp, bins = 3, 2, 8
	c := newMemCluster(t, procs, wpp, bins, []bool{true, true, false}, nil)

	assign := c.mcs[0].Assignment()
	if len(assign) != bins {
		t.Fatalf("assignment has %d bins, want %d", len(assign), bins)
	}
	for b, w := range assign {
		if w/wpp == 2 {
			t.Fatalf("bin %d starts owned by worker %d of the absent process 2", b, w)
		}
	}
	moves := c.mcs[0].InitialMoves()
	if len(moves) == 0 {
		t.Fatal("an incomplete roster must need initial moves")
	}
	got := plan.Initial(bins, procs*wpp)
	for _, m := range moves {
		got[m.Bin] = m.Worker
	}
	for b := range got {
		if got[b] != assign[b] {
			t.Fatalf("initial moves applied to the built-in assignment give bin %d to %d, mirror says %d", b, got[b], assign[b])
		}
	}
	// Every live process computes the identical move set (duplicate
	// injections must canonicalize away, so they must not differ).
	m1 := c.mcs[1].InitialMoves()
	if len(m1) != len(moves) {
		t.Fatalf("processes disagree on initial moves: %d vs %d", len(moves), len(m1))
	}
	for i := range moves {
		if moves[i].Bin != m1[i].Bin || moves[i].Worker != m1[i].Worker {
			t.Fatalf("initial move %d differs across processes: %+v vs %+v", i, moves[i], m1[i])
		}
	}

	full := newMemCluster(t, procs, wpp, bins, nil, nil)
	if mv := full.mcs[0].InitialMoves(); len(mv) != 0 {
		t.Fatalf("a complete roster needs no initial moves, got %d", len(mv))
	}
}

// TestMembershipCoveredPartition pins the input-coverage invariant: the live
// processes partition the full global slot space (their own slots plus the
// absent processes' slots) with no gaps and no overlaps, so the cluster-wide
// input multiset per epoch is independent of membership. Same for the
// crash-replay partition.
func TestMembershipCoveredPartition(t *testing.T) {
	const procs, wpp, bins = 3, 2, 8
	c := newMemCluster(t, procs, wpp, bins, []bool{true, true, false}, nil)

	if got := c.mcs[2].Covered(5); got != nil {
		t.Fatalf("an inactive process covers no slots, got %v", got)
	}
	seen := make(map[int]int)
	for p := 0; p < 2; p++ {
		for _, g := range c.mcs[p].Covered(5) {
			if prev, dup := seen[g]; dup {
				t.Fatalf("slot %d covered by both process %d and %d", g, prev, p)
			}
			seen[g] = p
		}
	}
	for g := 0; g < procs*wpp; g++ {
		if _, ok := seen[g]; !ok {
			t.Fatalf("slot %d covered by no live process", g)
		}
	}

	replay := make(map[int]int)
	for p := 0; p < 2; p++ {
		for _, g := range c.mcs[p].ReplaySlots(5) {
			if prev, dup := replay[g]; dup {
				t.Fatalf("replay slot %d owned by both process %d and %d", g, prev, p)
			}
			replay[g] = p
		}
	}
	for g := 0; g < procs*wpp; g++ {
		if _, ok := replay[g]; !ok {
			t.Fatalf("replay slot %d owned by no live process", g)
		}
	}
}

// TestMembershipJoinProtocol runs the whole admission path over the fake bus:
// hello, leader decision (mirrored to every process including the joiner),
// seed and rebalance move schedules, and the three-party admission barrier
// with inventory exchange and synchronized reset.
func TestMembershipJoinProtocol(t *testing.T) {
	const procs, wpp, bins = 3, 2, 8
	const margin = core.Time(4)
	c := newMemCluster(t, procs, wpp, bins, []bool{true, true, false}, nil)

	if !c.mcs[2].Joiner() {
		t.Fatal("process 2 must identify as a joiner")
	}

	admitted := make(chan *plan.Transition, 1)
	go func() {
		tr, err := c.mcs[2].AwaitAdmission(time.Now().Add(time.Minute))
		if err != nil {
			t.Error(err)
		}
		admitted <- tr
	}()

	var tr0 *plan.Transition
	var decidedAt core.Time
	for e := core.Time(1); e <= 200; e++ {
		c.mcs[0].Tick(e)
		c.mcs[1].Tick(e)
		if tr0 = c.mcs[0].NextCommit(); tr0 != nil {
			decidedAt = e
			break
		}
		time.Sleep(time.Millisecond)
	}
	if tr0 == nil {
		t.Fatal("leader never decided the join")
	}
	if tr0.Kind != plan.TransitionJoin || tr0.Slot != 2 || tr0.MemEpoch != 1 {
		t.Fatalf("unexpected join decision %+v", tr0)
	}
	if tr0.Epoch != decidedAt+margin {
		t.Fatalf("join commits at %d, want decision epoch %d + margin %d", tr0.Epoch, decidedAt, margin)
	}
	tr1 := c.mcs[1].NextCommit()
	if tr1 == nil || tr1.Kind != tr0.Kind || tr1.Slot != tr0.Slot || tr1.Epoch != tr0.Epoch || tr1.MemEpoch != tr0.MemEpoch {
		t.Fatalf("follower's mirrored decision %+v does not match the leader's %+v", tr1, tr0)
	}
	var tr2 *plan.Transition
	select {
	case tr2 = <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("joiner never received its admission")
	}
	if tr2.Epoch != tr0.Epoch || tr2.Slot != 2 {
		t.Fatalf("joiner's admission %+v does not match the decision %+v", tr2, tr0)
	}

	// All three assignment mirrors agree, and the rebalance put bins on the
	// joiner's workers.
	a0 := c.mcs[0].Assignment()
	joinerOwns := false
	for b, w := range a0 {
		if c.mcs[1].Assignment()[b] != w || c.mcs[2].Assignment()[b] != w {
			t.Fatalf("assignment mirrors diverge at bin %d", b)
		}
		if w/wpp == 2 {
			joinerOwns = true
		}
	}
	if !joinerOwns {
		t.Fatalf("rebalance moved no bin onto the joiner: %v", a0)
	}

	// The move schedule: seed moves at the commit epoch (the joiner's routing
	// history), rebalance moves a margin later, at least one onto the joiner.
	seed := c.mcs[1].MovesAt(tr0.Epoch)
	if len(seed) == 0 {
		t.Fatal("no seed moves at the commit epoch")
	}
	for _, m := range seed {
		if m.IsRestore() || m.IsCheckpoint() {
			t.Fatalf("seed move %+v is not a plain move", m)
		}
	}
	rebal := c.mcs[1].MovesAt(tr0.Epoch + margin)
	ontoJoiner := false
	for _, m := range rebal {
		if m.Worker/wpp == 2 {
			ontoJoiner = true
		}
	}
	if !ontoJoiner {
		t.Fatalf("rebalance moves %v send nothing to the joiner", rebal)
	}

	// The admission barrier: members report the commit epoch as their
	// frontier (the loop is quiesced there), the joiner reports it
	// synthetically. Everyone must pause, exchange inventories, reset to the
	// same summed baseline, and only then resume.
	c.fabs[0].frontier.Store(int64(tr0.Epoch))
	c.fabs[1].frontier.Store(int64(tr0.Epoch))
	trs := []*plan.Transition{tr0, tr1, tr2}
	results := make([]plan.BarrierResult, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p] = c.mcs[p].RunBarrier(trs[p])
		}(p)
	}
	wg.Wait()

	for p := 0; p < procs; p++ {
		if results[p].Cut != tr0.Epoch {
			t.Fatalf("process %d: join barrier cut %d, want the commit epoch %d", p, results[p].Cut, tr0.Epoch)
		}
		c.fabs[p].eventOrder(t, p, "pause", "inventory", "reset", "activate", "resume")
		if len(c.fabs[p].purgeCuts) != 0 {
			t.Fatalf("process %d: a join barrier must not purge, got cuts %v", p, c.fabs[p].purgeCuts)
		}
		if len(c.fabs[p].activated) != 1 || c.fabs[p].activated[0] != 2 {
			t.Fatalf("process %d: Activate calls %v, want exactly [2]", p, c.fabs[p].activated)
		}
		v := c.fabs[p].views
		if len(v) != 1 || v[0].from != tr0.Epoch || !v[0].active[0] || !v[0].active[1] || !v[0].active[2] {
			t.Fatalf("process %d: installed views %+v, want one all-active view from %d", p, v, tr0.Epoch)
		}
		if e := plan.MemEpoch(c.mcs[p]); e != 1 {
			t.Fatalf("process %d: membership epoch %d, want 1", p, e)
		}
		// The reset baseline must sum every participant's inventory: each
		// process contributed one distinctive hold delta.
		found := make(map[progress.Location]int)
		for _, d := range c.fabs[p].reset {
			found[d.Loc] = d.Delta
		}
		for q := 0; q < procs; q++ {
			want := c.fabs[q].hold
			if found[want.Loc] != want.Delta {
				t.Fatalf("process %d: reset batch %v is missing process %d's hold %+v", p, c.fabs[p].reset, q, want)
			}
		}
	}
}

// TestMembershipDrainProtocol pins drain-leave: the leader renders a plain
// (non-restore) move schedule that empties the leaver's bins at the commit
// epoch, no barrier and no purge happen, and the goodbye frame retires the
// slot on the survivors.
func TestMembershipDrainProtocol(t *testing.T) {
	const procs, wpp, bins = 3, 2, 8
	const margin = core.Time(4)
	c := newMemCluster(t, procs, wpp, bins, nil, nil)

	c.mcs[2].RequestLeave()
	var tr *plan.Transition
	var decidedAt core.Time
	for e := core.Time(1); e <= 200; e++ {
		c.mcs[0].Tick(e)
		c.mcs[1].Tick(e)
		c.mcs[2].Tick(e)
		if tr = c.mcs[0].NextCommit(); tr != nil {
			decidedAt = e
			break
		}
	}
	if tr == nil {
		t.Fatal("leader never decided the drain")
	}
	if tr.Kind != plan.TransitionDrain || tr.Slot != 2 || tr.Epoch != decidedAt+margin {
		t.Fatalf("unexpected drain decision %+v (decided at %d)", tr, decidedAt)
	}
	for p := 0; p < procs; p++ {
		if got := c.mcs[p].NextCommit(); got == nil || got.Kind != plan.TransitionDrain || got.Slot != 2 {
			t.Fatalf("process %d did not mirror the drain decision: %+v", p, got)
		}
		for b, w := range c.mcs[p].Assignment() {
			if w/wpp == 2 {
				t.Fatalf("process %d: bin %d still assigned to the leaver after the decision", p, b)
			}
		}
	}
	moves := c.mcs[0].MovesAt(tr.Epoch)
	if len(moves) == 0 {
		t.Fatal("drain decision carries no moves")
	}
	for _, m := range moves {
		if m.IsRestore() {
			t.Fatalf("drain move %+v must be a plain migration, not a restore", m)
		}
		if m.Worker/wpp == 2 {
			t.Fatalf("drain move %+v targets the leaver", m)
		}
	}

	c.mcs[0].CommitDrain(tr)
	if c.mcs[0].NextCommit() != nil {
		t.Fatal("CommitDrain did not clear the pending transition")
	}

	// Before the goodbye the leaver is still a mesh peer; after it the
	// survivors retire the slot. The leaver itself never retires anyone.
	if got := c.fabs[0].retiredSlots(); len(got) != 0 {
		t.Fatalf("survivor retired %v before the goodbye", got)
	}
	c.mcs[2].Goodbye()
	for p := 0; p < 2; p++ {
		if got := c.fabs[p].retiredSlots(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("process %d retired %v after the goodbye, want [2]", p, got)
		}
	}
	if got := c.fabs[2].retiredSlots(); len(got) != 0 {
		t.Fatalf("the leaver retired %v", got)
	}
}

// TestMembershipCrashProtocol pins crash-leave end to end minus the real
// dataflow: declaration is gated on a complete checkpoint, the decision
// carries restore moves for exactly the dead member's bins, the dead slot is
// retired immediately, and the two-survivor barrier purges at the common
// wedged frontier and reports it as the replay cut.
func TestMembershipCrashProtocol(t *testing.T) {
	const procs, wpp, bins = 3, 2, 8
	dir := t.TempDir()
	c := newMemCluster(t, procs, wpp, bins, nil, func(p int, o *plan.MembershipOptions) {
		o.Liveness.SuspectAfter = 2
		o.DeathAfter = 2
		o.CheckpointDir = dir
	})

	// Process 2 never ticks. Without a complete checkpoint its death may be
	// suspected but never declared.
	e := core.Time(1)
	for ; e <= 12; e++ {
		c.mcs[0].Tick(e)
		c.mcs[1].Tick(e)
	}
	if tr := c.mcs[0].NextCommit(); tr != nil {
		t.Fatalf("death declared with no complete checkpoint: %+v", tr)
	}

	writeFakeCheckpoint(t, dir, 6, procs*wpp)
	var tr *plan.Transition
	for ; e <= 200; e++ {
		c.mcs[0].Tick(e)
		c.mcs[1].Tick(e)
		if tr = c.mcs[0].NextCommit(); tr != nil {
			break
		}
	}
	if tr == nil {
		t.Fatal("death never declared after the checkpoint completed")
	}
	if tr.Kind != plan.TransitionCrash || tr.Slot != 2 || tr.Ckpt != 6 {
		t.Fatalf("unexpected crash decision %+v", tr)
	}

	// The dead member's bins — exactly the ones the initial assignment gave
	// its workers — become restore moves, and both survivors agree.
	deadBins := make(map[int]bool)
	for b, w := range plan.Initial(bins, procs*wpp) {
		if w/wpp == 2 {
			deadBins[b] = true
		}
	}
	if len(tr.DeadBins) != len(deadBins) {
		t.Fatalf("DeadBins %v, want the %d bins of process 2", tr.DeadBins, len(deadBins))
	}
	for _, b := range tr.DeadBins {
		if !deadBins[b] {
			t.Fatalf("DeadBins %v includes bin %d, which process 2 never owned", tr.DeadBins, b)
		}
	}
	tr1 := c.mcs[1].NextCommit()
	if tr1 == nil || tr1.Kind != plan.TransitionCrash || tr1.Ckpt != tr.Ckpt || len(tr1.DeadBins) != len(tr.DeadBins) {
		t.Fatalf("survivor's mirrored crash decision %+v does not match %+v", tr1, tr)
	}
	moves := c.mcs[0].MovesAt(tr.Epoch)
	if len(moves) != len(deadBins) {
		t.Fatalf("crash schedule has %d moves, want %d", len(moves), len(deadBins))
	}
	for _, m := range moves {
		if !m.IsRestore() {
			t.Fatalf("crash move %+v must be a restore command", m)
		}
	}
	c.mcs[1].MovesAt(tr1.Epoch) // keep the mirrors symmetric

	// The dead slot is retired on both survivors the moment the decision
	// lands, so no more dataflow frames queue toward it.
	for p := 0; p < 2; p++ {
		if got := c.fabs[p].retiredSlots(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("process %d retired %v at the decision, want [2]", p, got)
		}
	}

	// The crash barrier: both survivors wedge at a common frontier below the
	// commit epoch; the barrier purges there and reports it as the cut. The
	// survivors' workers report applied bounds at or above the cut (worker 0
	// and 2 applied past it — the wedged frontier only reflects what the
	// dead process acknowledged), which must surface as per-bin replay
	// boundaries: the checkpoint epoch for the dead member's bins, the
	// owner's bound for the rest.
	cut := tr.Epoch - 2
	c.fabs[0].frontier.Store(int64(cut))
	c.fabs[1].frontier.Store(int64(cut))
	wantBound := map[int]core.Time{0: cut + 1, 1: cut, 2: cut + 3, 3: cut}
	c.fabs[0].bounds = map[int]core.Time{0: wantBound[0], 1: wantBound[1]}
	c.fabs[1].bounds = map[int]core.Time{2: wantBound[2], 3: wantBound[3]}
	var wg sync.WaitGroup
	results := make([]plan.BarrierResult, 2)
	trs := []*plan.Transition{tr, tr1}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p] = c.mcs[p].RunBarrier(trs[p])
		}(p)
	}
	wg.Wait()
	for p := 0; p < 2; p++ {
		if results[p].Cut != cut {
			t.Fatalf("process %d: crash barrier cut %d, want the wedged frontier %d", p, results[p].Cut, cut)
		}
		c.fabs[p].eventOrder(t, p, "pause", "purge", "inventory", "reset", "resume")
		if cuts := c.fabs[p].purgeCuts; len(cuts) != 1 || cuts[0] != cut {
			t.Fatalf("process %d: purge cuts %v, want [%d]", p, cuts, cut)
		}
		if len(c.fabs[p].activated) != 0 {
			t.Fatalf("process %d: a crash barrier must not activate anyone, got %v", p, c.fabs[p].activated)
		}
		if len(results[p].BinCut) != bins {
			t.Fatalf("process %d: BinCut has %d entries, want %d", p, len(results[p].BinCut), bins)
		}
		for b, owner := range plan.Initial(bins, procs*wpp) {
			want := wantBound[owner]
			if deadBins[b] {
				want = tr.Ckpt
			}
			if got := results[p].BinCut[b]; got != want {
				t.Fatalf("process %d: BinCut[%d] = %d, want %d (owner %d, dead %v)", p, b, got, want, owner, deadBins[b])
			}
		}
	}
}

// TestMembershipDeathBoundary pins the declaration clock and the takeover
// guard on the membership controller: a fresh leader may not declare a death
// before its guard clears even when the silence already qualifies, and a late
// heartbeat from the suspect cancels the declaration entirely (leadership
// snaps back to the lower index).
func TestMembershipDeathBoundary(t *testing.T) {
	const procs, wpp, bins = 3, 2, 8
	const suspectAfter, deathAfter, margin = 2, 2, 3

	setup := func(t *testing.T) *memCluster {
		dir := t.TempDir()
		writeFakeCheckpoint(t, dir, 1, procs*wpp)
		return newMemCluster(t, procs, wpp, bins, nil, func(p int, o *plan.MembershipOptions) {
			o.Liveness.SuspectAfter = suspectAfter
			o.DeathAfter = deathAfter
			o.Margin = margin
			o.CheckpointDir = dir
		})
	}

	// Processes 0 and 2 are silent; process 1 ticks alone. It suspects
	// process 0 once its silence exceeds SuspectAfter (tick 3), arming the
	// takeover guard until tick 3+margin. Process 0's silence qualifies for
	// death at tick 5, but the guard must hold the declaration until tick 6.
	t.Run("takeover-guard", func(t *testing.T) {
		c := setup(t)
		for e := core.Time(1); e <= suspectAfter+deathAfter+1; e++ { // ticks 1..5
			c.mcs[1].Tick(e)
			if tr := c.mcs[1].NextCommit(); tr != nil {
				t.Fatalf("tick %d: death declared before the takeover guard cleared: %+v", e, tr)
			}
		}
		c.mcs[1].Tick(6)
		tr := c.mcs[1].NextCommit()
		if tr == nil || tr.Kind != plan.TransitionCrash || tr.Slot != 0 {
			t.Fatalf("tick 6: want the death of process 0 declared, got %+v", tr)
		}
		if tr.Epoch != 6+margin {
			t.Fatalf("death commits at %d, want %d", tr.Epoch, 6+margin)
		}
	})

	// Same silence, but process 0 beats once right before the would-be
	// declaration: the late beat un-suspects it, leadership returns to it,
	// and no death is ever declared while it keeps beating.
	t.Run("late-beat-cancels", func(t *testing.T) {
		c := setup(t)
		for e := core.Time(1); e <= suspectAfter+deathAfter+1; e++ { // ticks 1..5
			c.mcs[1].Tick(e)
		}
		c.mcs[0].Tick(6) // the late beat
		for e := core.Time(6); e <= 20; e++ {
			c.mcs[1].Tick(e)
			if e%2 == 0 {
				// Processes 0 and 2 keep beating from now on: 0's return
				// hands leadership back, and 2 must not become a candidate
				// once 0 resumes leading.
				c.mcs[0].Tick(e)
				c.mcs[2].Tick(e)
			}
			if tr := c.mcs[1].NextCommit(); tr != nil {
				t.Fatalf("tick %d: death declared after the suspect resumed beating: %+v", e, tr)
			}
		}
	})
}

// TestMembershipMarginViolationPanics pins the commit-epoch safety check: a
// decision whose commit epoch a member's drive loop has already passed is
// unrecoverable and must panic with advice to raise the margin.
func TestMembershipMarginViolationPanics(t *testing.T) {
	const procs, wpp, bins = 2, 2, 8
	c := newMemCluster(t, procs, wpp, bins, nil, nil)

	// Process 1's loop is far ahead; process 0 (leader) decides a drain with
	// commit epoch decision+margin, far in process 1's past. The synchronous
	// fake bus delivers the decision on the decider's goroutine, so the
	// receiver's panic surfaces here.
	c.mcs[1].Tick(100)
	c.mcs[1].RequestLeave()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on a decision whose commit epoch already passed")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "raise the membership margin") {
			t.Fatalf("panic %q does not point at the margin", msg)
		}
	}()
	c.mcs[0].Tick(1)
}

// TestMembershipAutoscaleDrain covers scale-in on the fake bus: under
// sustained underload the leader drain-leaves the coldest live member (the
// lowest index among equally idle ones) exactly once, and with only
// minProcs (2) members live it decides nothing, however long the lull.
func TestMembershipAutoscaleDrain(t *testing.T) {
	const wpp, bins, logBins = 2, 8, 3
	const sampleEvery, sustain = 4, 3
	for _, tc := range []struct {
		name     string
		active   []bool
		wantSlot int // -1: no decision
	}{
		{"three-live-drains-coldest", []bool{true, true, true}, 0},
		{"two-live-decides-nothing", []bool{true, true, false}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			procs := len(tc.active)
			c := newMemCluster(t, procs, wpp, bins, tc.active, func(p int, o *plan.MembershipOptions) {
				o.Autoscale = &plan.MembershipAutoscale{
					Meter:       core.NewLoadMeter(procs*wpp, logBins),
					SampleEvery: sampleEvery,
					ColdRecs:    10, // every window is idle: mean 0 recs/worker
					Sustain:     sustain,
				}
			})
			var first *plan.Transition
			var firstAt core.Time
			for e := core.Time(1); e <= 100*sampleEvery; e++ {
				for p, mc := range c.mcs {
					if tc.active[p] {
						mc.Tick(e)
					}
				}
				tr := c.mcs[0].NextCommit()
				switch {
				case tr == nil:
				case first == nil:
					first, firstAt = tr, e
				case tr != first:
					t.Fatalf("second decision %+v at epoch %d after %+v", tr, e, first)
				}
			}
			if tc.wantSlot < 0 {
				if first != nil {
					t.Fatalf("decided %+v at epoch %d with only %d members live", first, firstAt, procs-1)
				}
				return
			}
			if first == nil {
				t.Fatal("sustained underload never drained a member")
			}
			if first.Kind != plan.TransitionDrain || first.Slot != tc.wantSlot {
				t.Fatalf("decided %+v, want a drain-leave of process %d", first, tc.wantSlot)
			}
			if min := core.Time(sustain * sampleEvery); firstAt < min {
				t.Fatalf("decided at epoch %d, before %d windows of underload (epoch %d)", firstAt, sustain, min)
			}
			for p := 1; p < procs; p++ {
				if got := c.mcs[p].NextCommit(); got == nil || got.Kind != plan.TransitionDrain || got.Slot != tc.wantSlot {
					t.Fatalf("process %d did not mirror the drain: %+v", p, got)
				}
			}
		})
	}
}
