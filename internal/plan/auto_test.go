package plan_test

import (
	"runtime"
	"sync"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/plan"
)

// TestAutoControllerRebalancesSkew closes the whole loop on a real
// dataflow: a skewed stream hammers bins that all start on worker 0, the
// meter observes it, the LoadBalance policy proposes a spread, and the
// AutoController installs it — after which the hot bins live elsewhere and
// the counts are still exact.
func TestAutoControllerRebalancesSkew(t *testing.T) {
	const (
		workers = 2
		logBins = 3
		bins    = 1 << logBins
		epochs  = 600
		perTick = 16
	)
	meter := core.NewLoadMeter(workers, logBins)

	var mu sync.Mutex
	counts := map[uint64]uint64{}
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[uint64]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	handle := &core.Handle[uint64, core.MapState[uint64, uint64], core.KV[uint64, uint64]]{}
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[uint64](w, "data")
		dataIns = append(dataIns, in)
		out := core.Unary(w,
			core.Config{Name: "skew-count", LogBins: logBins, Meter: meter},
			ctlStream, data,
			// Identity binning: key k lands in bin k, so the skew below is
			// fully controlled.
			func(k uint64) uint64 { return k << (64 - logBins) },
			func() *core.MapState[uint64, uint64] {
				return &core.MapState[uint64, uint64]{M: make(map[uint64]uint64)}
			},
			func(tm core.Time, k uint64, s *core.MapState[uint64, uint64], _ *core.Notificator[uint64, core.MapState[uint64, uint64], core.KV[uint64, uint64]], emit func(core.KV[uint64, uint64])) {
				s.M[k]++
				emit(core.KV[uint64, uint64]{Key: k, Val: s.M[k]})
			}, handle)
		sink := w.NewOp("sink", 0)
		dataflow.Connect(sink, out, dataflow.Pipeline[core.KV[uint64, uint64]]{})
		sink.Build(func(c *dataflow.OpCtx) {
			dataflow.ForEachBatch(c, 0, func(_ core.Time, kvs []core.KV[uint64, uint64]) {
				mu.Lock()
				for _, kv := range kvs {
					if kv.Val > counts[kv.Key] {
						counts[kv.Key] = kv.Val
					}
				}
				mu.Unlock()
			})
		})
		p := dataflow.NewProbe(w, out)
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()

	initial := plan.Initial(bins, workers)
	auto := plan.NewAutoController(ctlIns, probe, initial, plan.AutoOptions{
		Meter:       meter,
		Policy:      plan.LoadBalance{Hysteresis: 0.2},
		Strategy:    plan.Fluid,
		SampleEvery: 50,
		Cooldown:    100,
	})

	// Skew: every record hits an even bin — the round-robin initial
	// assignment puts all even bins on worker 0.
	sent := uint64(0)
	expect := map[uint64]uint64{}
	for epoch := core.Time(1); epoch <= epochs; epoch++ {
		for w := 0; w < workers; w++ {
			for i := 0; i < perTick; i++ {
				k := uint64(2 * ((int(epoch) + w + i) % (bins / 2)))
				dataIns[w].SendAt(epoch, k)
				sent++
				expect[k]++
			}
		}
		auto.Tick(epoch)
		for _, h := range dataIns {
			h.AdvanceTo(epoch + 1)
		}
		// Pace the driver so completions are observed within the budget.
		for probe.Frontier()+8 < epoch {
			runtime.Gosched()
		}
	}
	// Let any in-flight plan finish before closing.
	for epoch := core.Time(epochs + 1); !auto.Idle() && epoch < epochs+5000; epoch++ {
		auto.Tick(epoch)
		for _, h := range dataIns {
			h.AdvanceTo(epoch + 1)
		}
		runtime.Gosched()
	}
	auto.Close()
	for _, h := range dataIns {
		h.Close()
	}
	exec.Wait()

	decisions := auto.Decisions()
	if len(decisions) == 0 {
		t.Fatal("auto controller never acted on the skew")
	}
	for _, d := range decisions {
		if d.Moves == 0 || d.Steps == 0 {
			t.Errorf("decision with empty plan: %+v", d)
		}
		if d.Policy != "load-balance" {
			t.Errorf("decision from policy %q", d.Policy)
		}
	}
	// The final assignment must have shed hot bins from worker 0.
	final := auto.Current()
	movedHot := 0
	for b := 0; b < bins; b += 2 {
		if final[b] != 0 {
			movedHot++
		}
	}
	if movedHot == 0 {
		t.Errorf("no hot bin left worker 0: final assignment %v", final)
	}
	// Correctness under autonomous migration: counts are exact.
	mu.Lock()
	defer mu.Unlock()
	for k, want := range expect {
		if counts[k] != want {
			t.Errorf("count[%d] = %d, want %d", k, counts[k], want)
		}
	}
	// The meter saw every application.
	if got := meter.Snapshot(nil).TotalRecs(); got != sent {
		t.Errorf("meter saw %d records, sent %d", got, sent)
	}
}

// TestAutoControllerCooldown: after a decision, no further decision can be
// taken for Cooldown idle ticks even if the load stays skewed.
func TestAutoControllerCooldown(t *testing.T) {
	const workers, logBins = 2, 2
	meter := core.NewLoadMeter(workers, logBins)

	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[uint64]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[uint64](w, "data")
		dataIns = append(dataIns, in)
		out := core.Unary(w,
			core.Config{Name: "cool-count", LogBins: logBins, Meter: meter},
			ctlStream, data,
			func(k uint64) uint64 { return k << (64 - logBins) },
			func() *uint64 { return new(uint64) },
			func(tm core.Time, k uint64, s *uint64, _ *core.Notificator[uint64, uint64, uint64], emit func(uint64)) {
				*s++
			}, nil)
		p := dataflow.NewProbe(w, out)
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()

	auto := plan.NewAutoController(ctlIns, probe, plan.Initial(1<<logBins, workers), plan.AutoOptions{
		Meter:       meter,
		Policy:      alwaysMove{},
		Strategy:    plan.AllAtOnce,
		SampleEvery: 10,
		Cooldown:    1 << 30, // effectively infinite
	})
	for epoch := core.Time(1); epoch <= 300; epoch++ {
		dataIns[0].SendAt(epoch, 0)
		auto.Tick(epoch)
		for _, h := range dataIns {
			h.AdvanceTo(epoch + 1)
		}
		for probe.Frontier()+8 < epoch {
			runtime.Gosched()
		}
	}
	for epoch := core.Time(301); !auto.Idle() && epoch < 5000; epoch++ {
		auto.Tick(epoch)
		for _, h := range dataIns {
			h.AdvanceTo(epoch + 1)
		}
		runtime.Gosched()
	}
	auto.Close()
	for _, h := range dataIns {
		h.Close()
	}
	exec.Wait()
	if n := len(auto.Decisions()); n != 1 {
		t.Errorf("cooldown violated: %d decisions, want exactly 1", n)
	}
}

// alwaysMove is a test policy that always flips bin 0 to the other worker.
type alwaysMove struct{}

func (alwaysMove) Name() string { return "always-move" }

func (alwaysMove) Target(current plan.Assignment, _ *core.LoadSnapshot) (plan.Assignment, bool) {
	target := append(plan.Assignment(nil), current...)
	target[0] = 1 - target[0]
	return target, true
}
