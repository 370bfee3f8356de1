package plan

import (
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
	"megaphone/internal/progress"
)

const (
	dispProcs, dispWPP, dispLogBins = 3, 2, 2
	dispBins                        = 1 << dispLogBins
)

// logSink collects Logf lines so tests can assert a frame was reported.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, format)
}

func (l *logSink) saw(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// newBothPlanes builds process 1's membership controller with the autoscaler's
// telemetry half attached: both planes behind the one detector, on the given
// bus and clock.
func newBothPlanes(bus ControlBus, proc int, clk *stepClock, logf func(string, ...any)) *MembershipController {
	return NewMembershipController(MembershipOptions{
		ClusterOptions: ClusterOptions{Bus: bus, Procs: dispProcs, Proc: proc, WorkersPerProc: dispWPP,
			Liveness: Liveness{TickEvery: testWindow, now: clk.now}, Logf: logf},
		Fabric:    nullFabric{},
		Frontier:  func() core.Time { return core.None },
		Bins:      dispBins,
		Autoscale: &MembershipAutoscale{Meter: core.NewLoadMeter(dispProcs*dispWPP, dispLogBins), SampleEvery: 4},
	})
}

// validFrames returns one well-formed frame of every control kind, as a peer
// of the newBothPlanes roster would send it.
func validFrames() map[byte][]byte {
	delta := core.LoadDelta{Proc: 0, Seq: 1, FirstWorker: 0, Bins: dispBins, Rows: make([]core.LoadDeltaRow, dispWPP)}
	for r := range delta.Rows {
		delta.Rows[r] = core.LoadDeltaRow{Recs: []uint64{1, 0, 2, 0}, Nanos: []uint64{10, 0, 20, 0}}
	}
	schedule := []timedMoves{{epoch: 9, moves: []core.Move{{Bin: 1, Worker: 3}, core.RestoreMove(2, 4, 5)}}}
	decision := []byte{memKindDecision}
	for _, v := range []uint64{uint64(TransitionCrash), 2, 9, 1, 5} { // kind, slot, epoch, memEpoch, ckpt
		decision = binenc.AppendUvarint(decision, v)
	}
	counters := make([]uint64, dispProcs)
	ready := appendSnap(binenc.AppendUvarint([]byte{memKindReady}, 9), 9, counters, counters)
	inv := appendSnap(binenc.AppendUvarint([]byte{memKindInv}, 9), 9, counters, counters)
	inv = binenc.AppendUvarint(inv, 1) // one applied bound: worker 0 at epoch 8
	inv = binenc.AppendUvarint(binenc.AppendUvarint(inv, 0), 8)
	var holds progress.Batch
	holds.Add(progress.Location(3), 7, 1)
	return map[byte][]byte{
		ctrlKindLoad:     core.AppendLoadDelta([]byte{ctrlKindLoad}, &delta),
		ctrlKindDecision: appendDecisionFrame(nil, Decision{Origin: 0, Epoch: 7, Policy: "p", Moves: 1, Steps: 1}, Initial(dispBins, dispProcs*dispWPP)),
		kindBeat:         {kindBeat},
		memKindHello:     {memKindHello},
		memKindLeaveReq:  {memKindLeaveReq},
		memKindDecision:  appendSchedule(decision, schedule),
		memKindReady:     ready,
		memKindInv:       holds.AppendWire(inv),
		memKindDone:      binenc.AppendUvarint([]byte{memKindDone}, 9),
		memKindGoodbye:   {memKindGoodbye},
		memKindMigration: appendSchedule(binenc.AppendUvarint([]byte{memKindMigration}, 0), schedule),
	}
}

// TestDispatchRoutesByKind pins the single dispatcher: frames buffered before
// it registered and frames arriving after both reach the plane that owns
// their kind byte, exactly once and in order; every one of them counts as a
// heartbeat; a kind whose plane is not attached, an empty frame and an
// out-of-range sender are reported and dropped.
func TestDispatchRoutesByKind(t *testing.T) {
	var logs logSink
	buses := NewFakeHub(3).Buses
	d, clk := newTestDetector(buses[1], 1, 4)
	d.logf = logs.logf
	var tel, mem []byte
	d.telemetry = func(from int, p []byte) { tel = append(tel, p[0]) }
	d.membership = func(from int, p []byte) { mem = append(mem, p[0]) }

	// Before start: the bus buffers, nothing is delivered or lost.
	buses[0].BroadcastControl([]byte{ctrlKindLoad})
	buses[2].BroadcastControl([]byte{memKindHello})
	if len(tel)+len(mem) != 0 {
		t.Fatalf("frames delivered before the dispatcher registered: %v %v", tel, mem)
	}
	window(d, clk)
	window(d, clk)
	d.start()
	buses[0].BroadcastControl([]byte{ctrlKindDecision})
	buses[0].BroadcastControl([]byte{memKindDone, 1})
	buses[0].BroadcastControl([]byte{kindBeat})
	if string(tel) != string([]byte{ctrlKindLoad, ctrlKindDecision}) || string(mem) != string([]byte{memKindHello, memKindDone}) {
		t.Fatalf("routing: telemetry plane saw kinds %v, membership plane %v", tel, mem)
	}
	if d.silentFor(0) != 0 || d.silentFor(2) != 0 {
		t.Fatalf("inbound frames did not count as heartbeats: silent for %d and %d windows", d.silentFor(0), d.silentFor(2))
	}

	// Drops: no plane for the kind, empty frame, sender outside the roster.
	d.telemetry = nil
	window(d, clk)
	d.dispatch(0, []byte{ctrlKindLoad})
	if len(tel) != 2 || !logs.saw("no control plane takes") {
		t.Fatal("a telemetry frame with no telemetry plane attached was not reported and dropped")
	}
	d.dispatch(2, nil)
	for _, from := range []int{-1, 3, 1 << 40} {
		d.dispatch(from, []byte{kindBeat})
	}
	if !logs.saw("dropping malformed control frame") {
		t.Fatal("malformed frames were not reported")
	}
	if d.silentFor(2) != 1 {
		t.Fatalf("an empty frame counted as a heartbeat (silent for %d windows, want 1)", d.silentFor(2))
	}
}

// TestCorruptDecisionIsDropped pins log-and-drop on the membership plane: a
// truncated decision frame is reported, changes nothing, and the controller
// keeps ticking and deciding afterwards.
func TestCorruptDecisionIsDropped(t *testing.T) {
	var logs logSink
	clk := &stepClock{nano: int64(time.Hour)}
	buses := NewFakeHub(dispProcs).Buses
	mc := newBothPlanes(buses[1], 1, clk, logs.logf)
	frame := validFrames()[memKindDecision]
	for cut := 1; cut < len(frame); cut++ {
		buses[0].BroadcastControl(frame[:cut])
	}
	if !logs.saw("dropping membership frame") {
		t.Fatal("a truncated decision was not reported")
	}
	mc.mu.Lock()
	memEpoch := mc.memEpoch
	mc.mu.Unlock()
	if tr := mc.NextCommit(); tr != nil || memEpoch != 0 {
		t.Fatalf("a truncated decision took effect: pending %+v, membership epoch %d", tr, memEpoch)
	}
	for e := core.Time(1); e <= 3; e++ {
		clk.advance(testWindow)
		mc.Tick(e)
	}
	buses[0].BroadcastControl(frame) // the intact frame still applies
	if tr := mc.NextCommit(); tr == nil || tr.Kind != TransitionCrash || tr.Slot != 2 || tr.Epoch != 9 {
		t.Fatalf("after the corrupt frames an intact decision did not apply: %+v", tr)
	}
}

// TestOneLivenessFramePerWindow pins the traffic the shared detector saves:
// with both planes attached to one detector every process sends exactly one
// liveness-bearing frame per window — the load delta when the window carries
// one, an explicit beat only when it broadcast nothing else — however many
// times it ticks inside the window, instead of a beat every tick plus a
// delta every sample.
func TestOneLivenessFramePerWindow(t *testing.T) {
	const windows, sampleEvery = 40, 4 // newBothPlanes samples every 4th tick
	clk := &stepClock{nano: int64(time.Hour)}
	buses := NewFakeHub(dispProcs).Buses
	var mcs [dispProcs]*MembershipController
	for p := range mcs {
		mcs[p] = newBothPlanes(buses[p], p, clk, t.Logf)
	}
	for w := 1; w <= windows; w++ {
		clk.advance(testWindow)
		for p, mc := range mcs {
			beats, deltas := buses[p].sentOf(kindBeat), buses[p].sentOf(ctrlKindLoad)
			mc.Tick(core.Time(w))
			beats, deltas = buses[p].sentOf(kindBeat)-beats, buses[p].sentOf(ctrlKindLoad)-deltas
			if wantDelta := w%sampleEvery == 0; beats+deltas != 1 || (deltas == 1) != wantDelta {
				t.Fatalf("window %d: process %d sent %d beats and %d load deltas, want exactly one frame (a delta: %v)",
					w, p, beats, deltas, wantDelta)
			}
		}
	}
	// More ticks inside the same window say nothing more.
	for p, mc := range mcs {
		beats := buses[p].sentOf(kindBeat)
		for i := 0; i < 3; i++ {
			mc.det.tick()
		}
		if got := buses[p].sentOf(kindBeat) - beats; got != 0 {
			t.Fatalf("process %d beat %d more times inside an already-announced window", p, got)
		}
		for q := range mcs {
			if mc.det.suspected(q) {
				t.Fatalf("process %d suspects %d although every window carried a frame", p, q)
			}
		}
	}
}

// FuzzControlDispatch feeds arbitrary (sender, payload) pairs into the one
// dispatcher with both planes attached. Nothing a peer can put on the control
// channel may panic this process, and a sender outside the roster must never
// be marked heard. (The controller has not ticked, so no well-formed decision
// can commit behind its loop: the deliberate fail-stop pinned by
// TestMembershipMarginViolationPanics is out of play and any panic is a bug.)
func FuzzControlDispatch(f *testing.F) {
	for _, frame := range validFrames() {
		f.Add(0, frame)
		f.Add(2, frame)
		for cut := 0; cut < len(frame); cut += 1 + len(frame)/8 {
			f.Add(0, frame[:cut])
		}
	}
	f.Add(-1, []byte{kindBeat})
	f.Add(dispProcs, []byte{memKindHello})
	f.Fuzz(func(t *testing.T, from int, payload []byte) {
		clk := &stepClock{nano: int64(time.Hour)}
		mc := newBothPlanes(nopBus{}, 1, clk, nil)
		for w := 0; w < 3; w++ { // windows 1..3, so "heard" is distinguishable from "never"
			clk.advance(testWindow)
			mc.det.tick()
		}
		mc.det.dispatch(from, payload)
		if from < 0 || from >= dispProcs {
			for q := range mc.det.lastHeard {
				if mc.det.lastHeard[q].Load() != 0 {
					t.Fatalf("a frame from %d, outside the roster of %d, marked process %d heard", from, dispProcs, q)
				}
			}
		}
		// The planes must still be usable after whatever the frame did.
		mc.det.dispatch(0, []byte{kindBeat})
		mc.LiveWorkersAt(1)
		mc.Assignment()
	})
}
