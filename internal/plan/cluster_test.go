package plan_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/plan"
)

// miniProc is one simulated cluster process: its own two-worker execution
// (so its probe and control stream are real) plus an AutoController whose
// ClusterOptions ride the fake hub.
type miniProc struct {
	exec    *dataflow.Execution
	dataIns []*dataflow.InputHandle[uint64]
	auto    *plan.AutoController
	probe   *dataflow.Probe
}

func startMiniProc(t *testing.T, hub *plan.FakeHub, proc, procs, workersPerProc, logBins int, tickEvery time.Duration, onLead func(lead bool, epoch core.Time)) *miniProc {
	t.Helper()
	bins := 1 << logBins
	meter := core.NewLoadMeter(procs*workersPerProc, logBins)
	mp := &miniProc{}
	var ctlIns []*dataflow.InputHandle[core.Move]
	mp.exec = dataflow.NewExecution(dataflow.Config{Workers: workersPerProc})
	mp.exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[uint64](w, "data")
		mp.dataIns = append(mp.dataIns, in)
		out := core.Unary(w,
			core.Config{Name: "elect-count", LogBins: logBins},
			ctlStream, data,
			func(k uint64) uint64 { return k << (64 - logBins) },
			func() *uint64 { return new(uint64) },
			func(tm core.Time, k uint64, s *uint64, _ *core.Notificator[uint64, uint64, uint64], emit func(uint64)) {
				*s++
			}, nil)
		p := dataflow.NewProbe(w, out)
		if w.Index() == 0 {
			mp.probe = p
		}
	})
	mp.exec.Start()
	cluster := &plan.ClusterOptions{
		Bus:            hub.Buses[proc],
		Procs:          procs,
		Proc:           proc,
		WorkersPerProc: workersPerProc,
		Liveness:       plan.Liveness{TickEvery: tickEvery, SuspectAfter: 3},
		Logf:           t.Logf,
	}
	plan.SetOnLeadership(cluster, onLead)
	mp.auto = plan.NewAutoController(ctlIns, mp.probe, plan.Initial(bins, workersPerProc), plan.AutoOptions{
		Meter:       meter,
		Policy:      alwaysMove{},
		Strategy:    plan.AllAtOnce,
		SampleEvery: 10,
		Cooldown:    20,
		Cluster:     cluster,
	})
	return mp
}

// tick drives one epoch: controller tick, input advance, and a bounded wait
// for the local frontier so the execution never runs unboundedly behind.
func (mp *miniProc) tick(epoch core.Time) {
	mp.auto.Tick(epoch)
	for _, h := range mp.dataIns {
		h.AdvanceTo(epoch + 1)
	}
	for mp.probe.Frontier()+8 < epoch {
		runtime.Gosched()
	}
}

// run drives the process's epoch loop on its own goroutine until stop is
// closed, then drains and shuts the execution down.
func (mp *miniProc) run(stop <-chan struct{}, afterTick func(epoch core.Time) bool) {
	epoch := core.Time(1)
	for {
		select {
		case <-stop:
			mp.shutdown(epoch)
			return
		default:
		}
		mp.tick(epoch)
		if afterTick != nil && afterTick(epoch) {
			mp.abandon()
			return
		}
		epoch++
	}
}

// shutdown lets any in-flight plan finish, then closes cleanly.
func (mp *miniProc) shutdown(epoch core.Time) {
	for ; !mp.auto.Idle() && epoch < 1_000_000; epoch++ {
		mp.auto.Tick(epoch)
		for _, h := range mp.dataIns {
			h.AdvanceTo(epoch + 1)
		}
		runtime.Gosched()
	}
	mp.auto.Close()
	for _, h := range mp.dataIns {
		h.Close()
	}
	mp.exec.Wait()
}

// abandon closes without waiting for plan completion: the process "died".
func (mp *miniProc) abandon() {
	mp.auto.Close()
	for _, h := range mp.dataIns {
		h.Close()
	}
	mp.exec.Wait()
}

// TestClusterControllerElectionFailover kills the lowest-index process the
// moment it issues its first plan and asserts the distributed control
// plane's safety story: process 1 (not 2) takes over after the suspect
// window, it issues nothing until the takeover guard clears (so its plans
// cannot conflict with the dead leader's in-flight one), and the survivors'
// decision logs agree. Run under -race: ticking goroutines, fake-bus
// delivery and assertions all overlap.
func TestClusterControllerElectionFailover(t *testing.T) {
	const procs, workersPerProc, logBins = 3, 2, 2
	hub := plan.NewFakeHub(procs)

	type leadEvent struct {
		proc  int
		lead  bool
		epoch core.Time
	}
	var leadMu sync.Mutex
	var leads []leadEvent
	onLead := func(proc int) func(bool, core.Time) {
		return func(lead bool, epoch core.Time) {
			leadMu.Lock()
			leads = append(leads, leadEvent{proc: proc, lead: lead, epoch: epoch})
			leadMu.Unlock()
		}
	}

	var mps [procs]*miniProc
	for p := 0; p < procs; p++ {
		mps[p] = startMiniProc(t, hub, p, procs, workersPerProc, logBins, 2*time.Millisecond, onLead(p))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The loops below run unpaced, thousands of epochs a second, and the
	// scheduler is free to starve any of them: liveness windows are 20 ms of
	// wall clock (10 samples x 2 ms), so neither reads as a death. The pacing
	// only keeps a starved process's epoch counter from falling so far behind
	// that the test's epoch-based assertions lose meaning.
	var epochs [procs]atomic.Int64
	var alive [procs]atomic.Bool
	for p := range alive {
		alive[p].Store(true)
	}
	pace := func(p int, e core.Time) {
		epochs[p].Store(int64(e))
		for {
			lag := false
			for q := 0; q < procs; q++ {
				if q == p || !alive[q].Load() {
					continue
				}
				if int64(e) > epochs[q].Load()+15 {
					lag = true
				}
			}
			if !lag {
				return
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}

	// Process 0 dies mid-plan: the first tick after its first decision is
	// issued (the plan is still executing), its heartbeats stop and its
	// loop exits without draining.
	var died atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		mps[0].run(stop, func(e core.Time) bool {
			if len(mps[0].auto.Decisions()) > 0 {
				hub.Buses[0].Dead.Store(true)
				alive[0].Store(false)
				died.Store(true)
				return true
			}
			pace(0, e)
			return false
		})
	}()
	for p := 1; p < procs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			mps[p].run(stop, func(e core.Time) bool {
				pace(p, e)
				return false
			})
		}()
	}

	// Let the survivors detect the death, elect process 1, and decide at
	// least once under the new leadership.
	deadline := time.After(30 * time.Second)
	for {
		if died.Load() {
			if hasOwnDecision(mps[1].auto.Decisions(), 1) {
				break
			}
		}
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("process 1 never decided after the takeover; its decisions: %+v", mps[1].auto.Decisions())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	// Leadership: process 1 took over, process 2 never led.
	leadMu.Lock()
	events := append([]leadEvent(nil), leads...)
	leadMu.Unlock()
	var takeoverEpoch core.Time
	tookOver := false
	for _, e := range events {
		if e.proc == 2 && e.lead {
			t.Fatalf("process 2 assumed leadership: %+v", events)
		}
		if e.proc == 1 && e.lead && !tookOver {
			tookOver = true
			takeoverEpoch = e.epoch
		}
	}
	if !tookOver {
		t.Fatalf("process 1 never assumed leadership: %+v", events)
	}

	// No conflicting plan: every decision process 1 made itself came
	// strictly after its takeover epoch (the guard forces at least one full
	// sampling window so the dead leader's moves drained first), and no
	// decision anywhere originates from process 2.
	for p := 1; p < procs; p++ {
		for _, d := range mps[p].auto.Decisions() {
			if d.Origin == 2 {
				t.Fatalf("process 2 issued a decision: %+v", d)
			}
			if d.Origin == 1 && d.Epoch <= takeoverEpoch {
				t.Fatalf("process 1 decided at epoch %d, at or before its takeover epoch %d", d.Epoch, takeoverEpoch)
			}
		}
	}

	// Mirroring: the dead leader's decision reached the survivors, and both
	// survivors agree on the (origin, epoch) decision log.
	d1, d2 := mps[1].auto.Decisions(), mps[2].auto.Decisions()
	if !hasOwnDecision(d1, 0) || !hasOwnDecision(d2, 0) {
		t.Fatalf("the first leader's decision was not mirrored: p1=%+v p2=%+v", d1, d2)
	}
	if !hasOwnDecision(d2, 1) {
		t.Fatalf("the new leader's decision was not mirrored to process 2: %+v", d2)
	}
}

// TestClusterControllerCoverageGate pins the telemetry-coverage gate: a
// leader must not render plans from a load window that lacks telemetry from
// live peers (such a window is mostly the leader's own rows and reads as a
// phantom imbalance). Coverage is reached either by hearing a load delta
// from every peer, or by suspecting the silent ones dead.
func TestClusterControllerCoverageGate(t *testing.T) {
	const procs, workersPerProc, logBins = 3, 2, 2

	// Silent peers: processes 1 and 2 exist in the spec but never tick.
	// With SampleEvery=10 and SuspectAfter=3, process 0 samples at epochs
	// 10, 20, ... and the unheard peers stay "live but unreported" through
	// its third sample — so the always-moving policy must stay muzzled
	// until epoch 40, when suspicion finally stands in for telemetry.
	t.Run("suspicion", func(t *testing.T) {
		hub := plan.NewFakeHub(procs)
		mp := startMiniProc(t, hub, 0, procs, workersPerProc, logBins, 0, nil)
		e := core.Time(1)
		for ; e <= 39; e++ {
			mp.tick(e)
		}
		if ds := mp.auto.Decisions(); len(ds) != 0 {
			t.Fatalf("leader decided before its view covered the cluster: %+v", ds)
		}
		for ; e <= 200; e++ {
			mp.tick(e)
			if len(mp.auto.Decisions()) > 0 {
				break
			}
		}
		ds := mp.auto.Decisions()
		if len(ds) == 0 {
			t.Fatal("leader never decided after the silent peers became suspect")
		}
		if ds[0].Epoch < 40 {
			t.Fatalf("leader decided at epoch %d, before the suspect window elapsed", ds[0].Epoch)
		}
		mp.shutdown(e + 1)
	})

	// Live peers: all three processes tick in lockstep, followers first, so
	// their first load deltas reach process 0 before its own first sampling
	// boundary — the first decision then lands at the first possible epoch.
	t.Run("telemetry", func(t *testing.T) {
		hub := plan.NewFakeHub(procs)
		var mps [procs]*miniProc
		for p := 0; p < procs; p++ {
			mps[p] = startMiniProc(t, hub, p, procs, workersPerProc, logBins, 0, nil)
		}
		for e := core.Time(1); e <= 10; e++ {
			mps[1].tick(e)
			mps[2].tick(e)
			mps[0].tick(e)
		}
		ds := mps[0].auto.Decisions()
		if len(ds) == 0 || ds[0].Epoch != 10 || ds[0].Origin != 0 {
			t.Fatalf("leader with full telemetry should decide at its first sampling boundary; got %+v", ds)
		}
		for p, mp := range mps {
			if p != 0 {
				if dsp := mp.auto.Decisions(); !hasOwnDecision(dsp, 0) {
					t.Fatalf("process %d did not mirror the leader's decision: %+v", p, dsp)
				}
			}
			mp.shutdown(11)
		}
	})
}

func hasOwnDecision(ds []plan.Decision, origin int) bool {
	for _, d := range ds {
		if d.Origin == origin {
			return true
		}
	}
	return false
}
