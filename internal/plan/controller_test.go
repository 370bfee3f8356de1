package plan_test

import (
	"runtime"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/plan"
)

// TestControllerPacesSteps drives a real miniature megaphone dataflow and
// checks that the controller issues one step per completion, in order, and
// reports the span once done.
func TestControllerPacesSteps(t *testing.T) {
	const workers = 2
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[core.KV[uint64, int64]]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[core.KV[uint64, int64]](w, "data")
		dataIns = append(dataIns, in)
		out := core.StateMachine(w, core.Config{Name: "count", LogBins: 3},
			ctlStream, data,
			core.Mix64,
			func(k uint64, v int64, st *int64, emit func(int64)) {
				*st += v
				emit(*st)
			}, nil)
		p := dataflow.NewProbe(w, out)
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()

	ctl := plan.NewController(ctlIns, probe)
	var issuedAt []core.Time
	var doneAt []core.Time
	ctl.OnStepIssued = func(step int, tm core.Time) { issuedAt = append(issuedAt, tm) }
	plan.SetOnStepDone(ctl, func(step int, tm core.Time) { doneAt = append(doneAt, tm) })

	p := plan.Build(plan.Fluid, plan.Initial(8, workers), plan.Rebalance(8, []int{1}), 0)
	wantSteps := len(p.Steps)
	if wantSteps == 0 {
		t.Fatal("empty plan")
	}

	started := false
	for epoch := core.Time(1); epoch < 5000 && (!started || !ctl.Idle()); epoch++ {
		dataIns[int(epoch)%workers].SendAt(epoch, core.KV[uint64, int64]{Key: uint64(epoch % 16), Val: 1})
		if epoch == 5 {
			ctl.Start(p)
			started = true
		}
		ctl.Tick(epoch)
		for _, h := range dataIns {
			h.AdvanceTo(epoch + 1)
		}
		// Pace the driver so the output frontier keeps up; otherwise step
		// completions are never observed within the epoch budget.
		for probe.Frontier()+4 < epoch {
			runtime.Gosched()
		}
	}
	if !ctl.Idle() {
		t.Fatal("plan did not complete")
	}
	ctl.Close()
	for _, h := range dataIns {
		h.Close()
	}
	exec.Wait()

	if len(issuedAt) != wantSteps {
		t.Fatalf("issued %d steps, want %d", len(issuedAt), wantSteps)
	}
	if len(doneAt) != wantSteps {
		t.Fatalf("done %d steps, want %d", len(doneAt), wantSteps)
	}
	for i := 1; i < len(issuedAt); i++ {
		if issuedAt[i] <= issuedAt[i-1] {
			t.Errorf("steps not strictly paced: %v", issuedAt)
		}
	}
	// Each step completes no earlier than its issue epoch.
	for i := range issuedAt {
		if doneAt[i] < issuedAt[i] {
			t.Errorf("step %d done at %v before issued at %v", i, doneAt[i], issuedAt[i])
		}
	}
	if start, end, ok := ctl.Span(); !ok || end < start {
		t.Errorf("span = (%v, %v, %v)", start, end, ok)
	}
}
