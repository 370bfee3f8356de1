package plan_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
	"megaphone/internal/plan"
)

// ctlRig is a minimal dataflow for exercising the Controller in isolation:
// the probe watches a plain data input (its frontier is exactly what the
// test advances it to), and the control stream drains into a counting sink.
type ctlRig struct {
	exec  *dataflow.Execution
	data  *dataflow.InputHandle[int]
	ctlIn []*dataflow.InputHandle[core.Move]
	probe *dataflow.Probe
	moves *atomic.Int64 // control commands observed downstream
}

func newCtlRig(t *testing.T) *ctlRig {
	t.Helper()
	rig := &ctlRig{moves: &atomic.Int64{}}
	rig.exec = dataflow.NewExecution(dataflow.Config{Workers: 1})
	rig.exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		rig.ctlIn = append(rig.ctlIn, ctl)
		operators.Sink(w, "ctl-sink", ctlStream, func(_ core.Time, ms []core.Move) {
			rig.moves.Add(int64(len(ms)))
		})
		in, data := dataflow.NewInput[int](w, "data")
		rig.data = in
		rig.probe = dataflow.NewProbe(w, data)
	})
	rig.exec.Start()
	return rig
}

// waitFrontier spins until the probed frontier passes want (or is None).
func (r *ctlRig) waitFrontier(t *testing.T, want core.Time) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f := r.probe.Frontier()
		if f > want || f == core.None {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frontier stuck at %v awaiting > %v", f, want)
		}
		runtime.Gosched()
	}
}

func (r *ctlRig) shutdown(ctl *plan.Controller) {
	ctl.Close()
	r.data.Close()
	r.exec.Wait()
}

// twoMovePlan builds a plan with one move per step under Fluid.
func twoMovePlan() plan.Plan {
	return plan.Build(plan.Fluid,
		plan.Assignment{0, 1}, plan.Assignment{1, 0}, 0)
}

// TestControllerEmptyPlan: starting an empty plan leaves the controller
// idle, never reports a span, and ticking remains harmless.
func TestControllerEmptyPlan(t *testing.T) {
	rig := newCtlRig(t)
	ctl := plan.NewController(rig.ctlIn, rig.probe)
	ctl.Start(plan.Plan{})
	if !ctl.Idle() {
		t.Fatal("controller busy after empty plan")
	}
	for e := core.Time(1); e <= 5; e++ {
		ctl.Tick(e)
		rig.data.AdvanceTo(e + 1)
	}
	if _, _, ok := ctl.Span(); ok {
		t.Error("empty plan reported a span")
	}
	if n := rig.moves.Load(); n != 0 {
		t.Errorf("empty plan sent %d moves", n)
	}
	rig.shutdown(ctl)
}

// TestControllerSingleStepOneTick: a one-step plan issues on the first tick
// and completes on the very next tick once the frontier has passed the
// issue epoch.
func TestControllerSingleStepOneTick(t *testing.T) {
	rig := newCtlRig(t)
	ctl := plan.NewController(rig.ctlIn, rig.probe)
	var issued, done []core.Time
	ctl.OnStepIssued = func(step int, tm core.Time) { issued = append(issued, tm) }
	plan.SetOnStepDone(ctl, func(step int, tm core.Time) { done = append(done, tm) })

	ctl.Start(plan.Plan{Steps: []plan.Step{{Moves: []core.Move{{Bin: 0, Worker: 1}}}}})
	ctl.Tick(1) // issues the step at epoch 1
	rig.data.AdvanceTo(3)
	rig.waitFrontier(t, 1)
	ctl.Tick(2) // observes completion
	if !ctl.Idle() {
		t.Fatal("single-step plan not complete after one observed completion")
	}
	if len(issued) != 1 || issued[0] != 1 {
		t.Errorf("issued = %v, want [1]", issued)
	}
	if len(done) != 1 || done[0] != 2 {
		t.Errorf("done = %v, want [2]", done)
	}
	if start, end, ok := ctl.Span(); !ok || start != 1 || end != 2 {
		t.Errorf("span = (%v, %v, %v), want (1, 2, true)", start, end, ok)
	}
	rig.shutdown(ctl)
}

// TestControllerFrontierNoneMidPlan: when the probed computation drains to
// the empty frontier (core.None) while a plan is mid-flight, the controller
// treats outstanding steps as complete and finishes the plan instead of
// hanging.
func TestControllerFrontierNoneMidPlan(t *testing.T) {
	rig := newCtlRig(t)
	ctl := plan.NewController(rig.ctlIn, rig.probe)
	ctl.Start(twoMovePlan())
	ctl.Tick(1) // step 0 issued
	// The probed input drains entirely: frontier goes to None mid-plan.
	rig.data.Close()
	rig.waitFrontier(t, core.None-1)
	ctl.Tick(2) // step 0 done (None), step 1 issued
	ctl.Tick(3) // step 1 done
	if !ctl.Idle() {
		t.Fatal("plan did not complete against a drained probe")
	}
	if start, end, ok := ctl.Span(); !ok || start != 1 || end != 3 {
		t.Errorf("span = (%v, %v, %v), want (1, 3, true)", start, end, ok)
	}
	ctl.Close()
	rig.exec.Wait()
}

// TestControllerBackToBackStart: a second Start right after completion runs
// the new plan; a Start while active panics.
func TestControllerBackToBackStart(t *testing.T) {
	rig := newCtlRig(t)
	ctl := plan.NewController(rig.ctlIn, rig.probe)

	run := func(base core.Time) {
		ctl.Start(plan.Plan{Steps: []plan.Step{{Moves: []core.Move{{Bin: 0, Worker: 1}}}}})
		if ctl.Idle() {
			t.Fatal("controller idle right after Start")
		}
		// A concurrent Start must panic while the plan is active.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Start while active did not panic")
				}
			}()
			ctl.Start(twoMovePlan())
		}()
		ctl.Tick(base)
		rig.data.AdvanceTo(base + 2)
		rig.waitFrontier(t, base)
		ctl.Tick(base + 1)
		if !ctl.Idle() {
			t.Fatalf("plan starting at %v did not complete", base)
		}
	}
	run(1)
	run(3) // back-to-back: reuses the controller immediately after completion
	if start, end, ok := ctl.Span(); !ok || start != 3 || end != 4 {
		t.Errorf("span after second plan = (%v, %v, %v), want (3, 4, true)", start, end, ok)
	}
	if n := rig.moves.Load(); n != 2 {
		t.Errorf("observed %d moves downstream, want 2", n)
	}
	rig.shutdown(ctl)
}

// TestControllerCallbackOrdering: under concurrent Idle/Span readers (run
// with -race), the issued and done hooks strictly alternate per step and
// never overlap: issued(i) <= done(i) <= issued(i+1).
func TestControllerCallbackOrdering(t *testing.T) {
	rig := newCtlRig(t)
	ctl := plan.NewController(rig.ctlIn, rig.probe)

	type ev struct {
		kind string
		step int
		at   core.Time
	}
	var evs []ev
	ctl.OnStepIssued = func(step int, tm core.Time) { evs = append(evs, ev{"issued", step, tm}) }
	plan.SetOnStepDone(ctl, func(step int, tm core.Time) { evs = append(evs, ev{"done", step, tm}) })

	// Hammer the read-side API from another goroutine while the plan runs.
	stop := make(chan struct{})
	raced := make(chan struct{})
	go func() {
		defer close(raced)
		for {
			select {
			case <-stop:
				return
			default:
				ctl.Idle()
				ctl.Span()
			}
		}
	}()

	p := plan.Build(plan.Fluid, plan.Initial(8, 2), plan.Rebalance(8, []int{1}), 0)
	ctl.Start(p)
	epoch := core.Time(1)
	for ; !ctl.Idle() && epoch < 5000; epoch++ {
		ctl.Tick(epoch)
		rig.data.AdvanceTo(epoch + 1)
		rig.waitFrontier(t, epoch)
	}
	close(stop)
	<-raced
	if !ctl.Idle() {
		t.Fatal("plan did not complete")
	}

	want := 0 // next expected event index: alternate issued/done per step
	for i, e := range evs {
		step, kind := want/2, "issued"
		if want%2 == 1 {
			kind = "done"
		}
		if e.kind != kind || e.step != step {
			t.Fatalf("event %d = %+v, want %s step %d (history %+v)", i, e, kind, step, evs)
		}
		if i > 0 && e.at < evs[i-1].at {
			t.Fatalf("event %d at %v before predecessor at %v", i, e.at, evs[i-1].at)
		}
		want++
	}
	if want != 2*len(p.Steps) {
		t.Fatalf("saw %d events, want %d", want, 2*len(p.Steps))
	}
	rig.shutdown(ctl)
}
