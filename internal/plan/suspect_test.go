package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/progress"
)

// nopBus satisfies ControlBus for tests that only exercise the local half of
// the control plane (window clock, election) and never need delivery.
type nopBus struct{}

func (nopBus) BroadcastControl([]byte)             {}
func (nopBus) SetControlHandler(func(int, []byte)) {}

// stepClock is the injected wall clock: it moves only when a test says so.
type stepClock struct{ nano int64 }

func (c *stepClock) now() int64              { return c.nano }
func (c *stepClock) advance(d time.Duration) { c.nano += int64(d) }

const testWindow = 10 * time.Millisecond

// newTestDetector builds the detector of process `proc` in a three-process
// roster, with one tick per window paced by the returned stepped clock.
func newTestDetector(bus ControlBus, proc, suspectAfter int) (*detector, *stepClock) {
	clk := &stepClock{nano: int64(time.Hour)}
	return newDetector(ClusterOptions{Bus: bus, Procs: 3, Proc: proc,
		Liveness: Liveness{TickEvery: testWindow, SuspectAfter: suspectAfter, now: clk.now}}, 1), clk
}

// window steps the clock one full window and ticks the detector across it.
func window(d *detector, clk *stepClock) {
	clk.advance(testWindow)
	d.tick()
}

func leaderOf(d *detector) int {
	d.elect(0, nil)
	return d.lastLeader
}

// TestSuspicionNeverWithRegularBeats pins the healthy side of the suspicion
// boundary: a peer heard from at least once every SuspectAfter-1 windows is
// never suspected, so leadership never strays from it.
func TestSuspicionNeverWithRegularBeats(t *testing.T) {
	const suspectAfter = 4
	d, clk := newTestDetector(nopBus{}, 2, suspectAfter)
	for w := 1; w <= 12*suspectAfter; w++ {
		window(d, clk)
		if w%(suspectAfter-1) == 0 {
			d.heardFrom(0)
			d.heardFrom(1)
		}
		if got := leaderOf(d); got != 0 {
			t.Fatalf("window %d: leader = %d; a peer beating every %d windows must never be suspected",
				w, got, suspectAfter-1)
		}
	}
}

// TestSuspicionBoundaryExact pins the exact suspicion edge: a peer that goes
// silent survives SuspectAfter windows of silence and is suspected on the
// next one (silence strictly greater than SuspectAfter windows).
func TestSuspicionBoundaryExact(t *testing.T) {
	const suspectAfter = 4
	d, clk := newTestDetector(nopBus{}, 2, suspectAfter)
	for w := 1; w <= suspectAfter; w++ {
		window(d, clk)
		d.heardFrom(1) // peer 1 stays chatty; only peer 0 goes silent
		if got := leaderOf(d); got != 0 {
			t.Fatalf("window %d of %d: peer 0 suspected one window early (leader = %d)", w, suspectAfter, got)
		}
	}
	window(d, clk)
	d.heardFrom(1)
	if got := leaderOf(d); got != 1 {
		t.Fatalf("window %d: peer 0 still unsuspected after more than SuspectAfter silent windows (leader = %d)",
			suspectAfter+1, got)
	}
}

// TestSuspicionLateBeatUnsuspects pins recovery: a suspected peer that
// resumes its heartbeat is unsuspected at once and takes leadership back.
func TestSuspicionLateBeatUnsuspects(t *testing.T) {
	const suspectAfter = 3
	d, clk := newTestDetector(nopBus{}, 2, suspectAfter)
	for w := 1; w <= suspectAfter+2; w++ {
		window(d, clk)
		d.heardFrom(1)
	}
	if got := leaderOf(d); got != 1 {
		t.Fatalf("setup: peer 0 should be suspected (leader = %d)", got)
	}
	d.heardFrom(0) // the late beat
	if got := leaderOf(d); got != 0 {
		t.Fatalf("after a late beat peer 0 must be unsuspected (leader = %d)", got)
	}
	// And suspicion re-arms from the new clock, not the old one.
	for w := 1; w <= suspectAfter; w++ {
		window(d, clk)
		d.heardFrom(1)
		if got := leaderOf(d); got != 0 {
			t.Fatalf("window %d after recovery: suspicion re-armed early (leader = %d)", w, got)
		}
	}
	window(d, clk)
	d.heardFrom(1)
	if got := leaderOf(d); got != 1 {
		t.Fatalf("suspicion did not re-arm after recovery (leader = %d)", got)
	}
}

// TestSuspicionCoverageGate pins covered(): a silent peer that never sent
// telemetry blocks coverage until its silence exceeds the suspect window.
func TestSuspicionCoverageGate(t *testing.T) {
	const suspectAfter, wpp, logBins = 4, 2, 2
	d, clk := newTestDetector(nopBus{}, 0, suspectAfter)
	cs := newClusterState(core.NewLoadMeter(3*wpp, logBins), d, wpp)
	cs.heard[1].Store(true)
	for w := 1; w <= suspectAfter; w++ {
		window(d, clk)
		if cs.covered() {
			t.Fatalf("window %d: covered with peer 2 unheard and not yet suspect", w)
		}
	}
	window(d, clk)
	if !cs.covered() {
		t.Fatal("peer 2 silent past the suspect window must count as covered (suspicion stands in for telemetry)")
	}
}

// TestSuspicionIgnoresLocalTickSkew is the interleaving that used to read as
// death: this process ticks many times (a drive loop bursting through epochs,
// or simply running ahead) while a starved peer says nothing for
// SuspectAfter-1 windows of wall time. Only wall time may count against the
// peer, however many local ticks elapse.
func TestSuspicionIgnoresLocalTickSkew(t *testing.T) {
	const suspectAfter = 4
	d, clk := newTestDetector(nopBus{}, 2, suspectAfter)
	window(d, clk)
	d.heardFrom(0)
	d.heardFrom(1)
	for w := 1; w < suspectAfter; w++ {
		for i := 0; i < 1000; i++ { // a thousand local ticks inside one window
			d.tick()
			clk.advance(testWindow / 1000)
		}
		if d.suspected(0) || d.suspected(1) {
			t.Fatalf("after %d windows of wall time (%d local ticks) a peer is suspected: local ticks counted as silence",
				w, 1000*w)
		}
	}
	// A stall ends in one window, not one per missed tick: after ten windows'
	// worth of wall time in a single step the counter moves once.
	before := d.windows.Load()
	clk.advance(10 * testWindow)
	for i := 0; i < 100; i++ {
		d.tick()
	}
	if got := d.windows.Load() - before; got != 1 {
		t.Fatalf("a stalled loop catching up advanced %d windows; want exactly 1", got)
	}
}

// TestElectionThreeProcsZeroDies runs the failover schedule deterministically:
// three detectors on one fake hub step a shared clock window by window,
// process 0 dies, and process 1 leads while 2 never does, on every window of
// the schedule, because 1 keeps beating.
func TestElectionThreeProcsZeroDies(t *testing.T) {
	const procs, suspectAfter = 3, 3
	clk := &stepClock{nano: int64(time.Hour)}
	buses := NewFakeHub(procs).Buses
	var dets [procs]*detector
	led := make([][]bool, procs)
	for p := range dets {
		p := p
		dets[p] = newDetector(ClusterOptions{Bus: buses[p], Procs: procs, Proc: p, Logf: t.Logf,
			Liveness:     Liveness{TickEvery: testWindow, SuspectAfter: suspectAfter, now: clk.now},
			OnLeadership: func(lead bool, _ core.Time) { led[p] = append(led[p], lead) }}, 1)
		dets[p].start()
	}
	alive := []bool{true, true, true}
	for w := 1; w <= 6*suspectAfter; w++ {
		if w == suspectAfter {
			alive[0] = false
			buses[0].Dead.Store(true)
		}
		clk.advance(testWindow)
		// Tick in the worst order for process 2: it advances its window
		// before the live lower-index peers have beaten in this one.
		for _, p := range []int{2, 1, 0} {
			if alive[p] {
				dets[p].tick()
				dets[p].elect(core.Time(w), nil)
			}
		}
		if dets[2].leader {
			t.Fatalf("window %d: process 2 leads while process 1 is alive and beating", w)
		}
		if w < suspectAfter && !dets[0].leader {
			t.Fatalf("window %d: process 0 does not lead at startup", w)
		}
	}
	if !dets[1].leader {
		t.Fatal("process 1 never took over from the dead process 0")
	}
	if len(led[1]) != 1 || !led[1][0] || len(led[2]) != 0 {
		t.Fatalf("leadership edges: process 1 %v (want one assume), process 2 %v (want none)", led[1], led[2])
	}
}

// nullFabric satisfies Fabric for declaration-gate tests that never run a
// barrier: only the decision-time calls (RetirePeer, InstallView,
// SetMembershipEpoch) land, and nothing observes them.
type nullFabric struct{}

func (nullFabric) Pause()                               {}
func (nullFabric) Resume()                              {}
func (nullFabric) HoldInventory(b *progress.Batch)      {}
func (nullFabric) PurgeDeferred(cut core.Time)          {}
func (nullFabric) AppliedBounds() map[int]core.Time     { return nil }
func (nullFabric) ResetProgress(b *progress.Batch)      {}
func (nullFabric) InstallView(from core.Time, a []bool) {}
func (nullFabric) Activate(p int)                       {}
func (nullFabric) RetirePeer(p int)                     {}
func (nullFabric) SetMembershipEpoch(e uint64)          {}
func (nullFabric) DataCounters() (sent, recv []uint64)  { return nil, nil }

// writeManifests writes manifest files for the given workers at one epoch,
// each recording the given live roster (nil = full roster). Writing a strict
// subset of a manifest's live set models a checkpoint caught mid-commit.
func writeManifests(t *testing.T, dir string, epoch core.Time, peers int, workers, live []int) {
	t.Helper()
	ed := filepath.Join(dir, "count", fmt.Sprintf("epoch-%d", epoch))
	if err := os.MkdirAll(ed, 0o777); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		m := core.Manifest{Op: "count", Epoch: uint64(epoch), Worker: w, Peers: peers, Live: live, Codec: "binary"}
		data, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ed, fmt.Sprintf("manifest-w%d.json", w)), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// newDeclTicker builds a membership controller for process 1 of a
// three-process roster whose peers stay silent: ticking it alone walks
// process 0 through suspicion into death declaration, gated on a complete
// checkpoint in dir.
func newDeclTicker(t *testing.T, dir string) *MembershipController {
	t.Helper()
	return NewMembershipController(MembershipOptions{
		ClusterOptions: ClusterOptions{Bus: nopBus{}, Procs: 3, Proc: 1, WorkersPerProc: 2,
			Liveness: Liveness{SuspectAfter: 2}, Logf: t.Logf},
		Fabric:        nullFabric{},
		Frontier:      func() core.Time { return core.None },
		Bins:          8,
		DeathAfter:    2,
		Margin:        3,
		CheckpointDir: dir,
	})
}

// TestDeathDeclarationWaitsForCompleteEpoch pins the declaration gate against
// a checkpoint caught mid-commit: suspicion escalates to death-qualification
// while only some of an epoch's live workers have committed their manifests,
// and the declaration must wait — an epoch is complete only when every worker
// the manifests record as live has committed. Once the missing manifest
// lands, the declaration proceeds with that epoch as the restore cut.
func TestDeathDeclarationWaitsForCompleteEpoch(t *testing.T) {
	const peers = 6 // 3 procs * 2 workers
	dir := t.TempDir()
	mc := newDeclTicker(t, dir)

	// A full-roster checkpoint at epoch 2, missing worker 5's manifest: the
	// crash fired mid-commit. Silence qualifies process 0 for death at tick
	// 5; the incomplete epoch must hold the declaration indefinitely.
	writeManifests(t, dir, 2, peers, []int{0, 1, 2, 3, 4}, nil)
	e := core.Time(1)
	for ; e <= 30; e++ {
		mc.Tick(e)
		if tr := mc.NextCommit(); tr != nil {
			t.Fatalf("tick %d: death declared against an incomplete checkpoint epoch: %+v", e, tr)
		}
	}

	// The straggler commits: the epoch is now complete under the roster the
	// manifests record, and the declaration must follow.
	writeManifests(t, dir, 2, peers, []int{5}, nil)
	var tr *Transition
	for ; e <= 60; e++ {
		mc.Tick(e)
		if tr = mc.NextCommit(); tr != nil {
			break
		}
	}
	if tr == nil {
		t.Fatal("death never declared after the checkpoint epoch completed")
	}
	if tr.Kind != TransitionCrash || tr.Slot != 0 || tr.Ckpt != 2 {
		t.Fatalf("crash decision %+v, want process 0 dead with restore cut at epoch 2", tr)
	}
}

// TestDeathDeclarationAcceptsShrunkRoster pins the other half of roster-aware
// completeness: a checkpoint whose manifests record a shrunk live roster is
// complete once exactly those live workers committed — the absent slots'
// missing manifests must not hold the declaration (they will never arrive).
func TestDeathDeclarationAcceptsShrunkRoster(t *testing.T) {
	const peers = 6
	dir := t.TempDir()
	mc := newDeclTicker(t, dir)

	// Workers 2..5 (processes 1 and 2) are the recorded live roster; the
	// suspect's workers 0 and 1 have no manifests, by design.
	writeManifests(t, dir, 3, peers, []int{2, 3, 4, 5}, []int{2, 3, 4, 5})
	var tr *Transition
	for e := core.Time(1); e <= 60; e++ {
		mc.Tick(e)
		if tr = mc.NextCommit(); tr != nil {
			break
		}
	}
	if tr == nil {
		t.Fatal("death never declared against a complete shrunk-roster checkpoint")
	}
	if tr.Kind != TransitionCrash || tr.Slot != 0 || tr.Ckpt != 3 {
		t.Fatalf("crash decision %+v, want process 0 dead with restore cut at epoch 3", tr)
	}
}
