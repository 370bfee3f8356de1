package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// wordCount runs a migrating word-count over the given inputs with the given
// migration plan (time -> moves), and returns the final count per key as
// observed downstream, along with the application log (time, bin, worker).
type appEvent struct {
	t      core.Time
	bin    int
	worker int
}

type wcResult struct {
	finals map[uint64]int64
	log    []appEvent
}

func runWordCount(t *testing.T, workers, logBins int, inputs [][]kvAt, plan map[core.Time][]core.Move) wcResult {
	t.Helper()
	var mu sync.Mutex
	res := wcResult{finals: make(map[uint64]int64)}

	handle := &core.Handle[core.KV[uint64, int64], core.MapState[uint64, int64], core.KV[uint64, int64]]{}
	handle.OnApply = func(tm core.Time, bin, worker int) {
		mu.Lock()
		res.log = append(res.log, appEvent{t: tm, bin: bin, worker: worker})
		mu.Unlock()
	}

	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[core.KV[uint64, int64]]
	var ctlIns []*dataflow.InputHandle[core.Move]
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[core.KV[uint64, int64]](w, "input")
		dataIns = append(dataIns, in)
		counts := core.StateMachine(w,
			core.Config{Name: "count", LogBins: logBins},
			ctlStream, data,
			func(k uint64) uint64 { return core.Mix64(k) },
			func(k uint64, v int64, st *int64, emit func(core.KV[uint64, int64])) {
				*st += v
				emit(core.KV[uint64, int64]{Key: k, Val: *st})
			},
			handle)
		idx := w.Index()
		_ = idx
		sink := w.NewOp("sink", 0)
		dataflow.Connect(sink, counts, dataflow.Pipeline[core.KV[uint64, int64]]{})
		sink.Build(func(c *dataflow.OpCtx) {
			dataflow.ForEachBatch(c, 0, func(_ core.Time, out []core.KV[uint64, int64]) {
				mu.Lock()
				for _, kv := range out {
					if kv.Val > res.finals[kv.Key] {
						res.finals[kv.Key] = kv.Val
					}
				}
				mu.Unlock()
			})
		})
	})
	exec.Start()

	driveWordCount(inputs, plan, dataIns, ctlIns)
	exec.Wait()
	return res
}

// driveWordCount feeds data and control in lockstep epochs and closes the
// handles. Control moves at time tm are sent on worker 0's control handle
// before advancing all handles.
func driveWordCount(inputs [][]kvAt, plan map[core.Time][]core.Move, dataIns []*dataflow.InputHandle[core.KV[uint64, int64]], ctlIns []*dataflow.InputHandle[core.Move]) {
	maxTime := core.Time(0)
	for _, in := range inputs {
		for _, kv := range in {
			if kv.t > maxTime {
				maxTime = kv.t
			}
		}
	}
	for tm := range plan {
		if tm > maxTime {
			maxTime = tm
		}
	}
	for now := core.Time(0); now <= maxTime; now++ {
		if moves, ok := plan[now]; ok {
			ctlIns[0].SendAt(now, moves...)
		}
		for wi, in := range inputs {
			for _, kv := range in {
				if kv.t == now {
					dataIns[wi].SendAt(now, core.KV[uint64, int64]{Key: kv.key, Val: kv.val})
				}
			}
		}
		for _, h := range ctlIns {
			h.AdvanceTo(now + 1)
		}
		for _, h := range dataIns {
			h.AdvanceTo(now + 1)
		}
	}
	for _, h := range ctlIns {
		h.Close()
	}
	for _, h := range dataIns {
		h.Close()
	}
}

type kvAt struct {
	t   core.Time
	key uint64
	val int64
}

// TestCorrectnessUnderMigration (Property 1): outputs of a migrated
// execution equal those of a single-worker reference execution, for random
// inputs and a random migration plan.
func TestCorrectnessUnderMigration(t *testing.T) {
	const workers, logBins = 4, 4
	rng := rand.New(rand.NewSource(42))

	inputs := make([][]kvAt, workers)
	expect := make(map[uint64]int64)
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(64))
		v := int64(rng.Intn(10) + 1)
		tm := core.Time(rng.Intn(100))
		inputs[i%workers] = append(inputs[i%workers], kvAt{t: tm, key: k, val: v})
		expect[k] += v
	}

	// Random plan: several migration times, random bins to random workers.
	plan := make(map[core.Time][]core.Move)
	for _, tm := range []core.Time{20, 45, 70} {
		var moves []core.Move
		for b := 0; b < 1<<logBins; b++ {
			if rng.Intn(2) == 0 {
				moves = append(moves, core.Move{Bin: b, Worker: rng.Intn(workers)})
			}
		}
		plan[tm] = moves
	}

	res := runWordCount(t, workers, logBins, inputs, plan)
	if len(res.finals) != len(expect) {
		t.Fatalf("got %d keys, want %d", len(res.finals), len(expect))
	}
	for k, want := range expect {
		if got := res.finals[k]; got != want {
			t.Errorf("count[%d] = %d, want %d", k, got, want)
		}
	}
}

// TestMigrationProperty (Property 2): every update at time tm is applied at
// the worker the configuration function assigns for (tm, bin).
func TestMigrationProperty(t *testing.T) {
	const workers, logBins = 3, 3
	rng := rand.New(rand.NewSource(7))

	inputs := make([][]kvAt, workers)
	for i := 0; i < 1500; i++ {
		inputs[i%workers] = append(inputs[i%workers], kvAt{
			t:   core.Time(rng.Intn(120)),
			key: uint64(rng.Intn(256)),
			val: 1,
		})
	}
	plan := map[core.Time][]core.Move{
		30: {{Bin: 0, Worker: 2}, {Bin: 1, Worker: 2}, {Bin: 2, Worker: 0}},
		60: {{Bin: 0, Worker: 1}, {Bin: 5, Worker: 0}},
		90: {{Bin: 1, Worker: 0}, {Bin: 2, Worker: 2}, {Bin: 7, Worker: 1}},
	}

	res := runWordCount(t, workers, logBins, inputs, plan)

	// Reference configuration function.
	owner := func(bin int, tm core.Time) int {
		w := core.InitialWorker(bin, workers)
		var times []core.Time
		for pt := range plan {
			times = append(times, pt)
		}
		// ascending
		for i := 0; i < len(times); i++ {
			for j := i + 1; j < len(times); j++ {
				if times[j] < times[i] {
					times[i], times[j] = times[j], times[i]
				}
			}
		}
		for _, pt := range times {
			if pt > tm {
				break
			}
			for _, m := range plan[pt] {
				if m.Bin == bin {
					w = m.Worker
				}
			}
		}
		return w
	}

	if len(res.log) == 0 {
		t.Fatal("no applications logged")
	}
	for _, ev := range res.log {
		if want := owner(ev.bin, ev.t); ev.worker != want {
			t.Errorf("update at t=%v bin=%d applied on worker %d, want %d", ev.t, ev.bin, ev.worker, want)
		}
	}
}

// TestCompletion (Property 3): after inputs and control close, the dataflow
// drains and Wait returns; and with an open control stream but advancing
// frontier, outputs keep flowing. Completion of Wait in other tests already
// covers the closed case; here we check mid-stream liveness explicitly.
func TestCompletion(t *testing.T) {
	const workers = 2
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[core.KV[uint64, int64]]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[core.KV[uint64, int64]](w, "input")
		dataIns = append(dataIns, in)
		counts := core.StateMachine(w, core.Config{Name: "count", LogBins: 3},
			ctlStream, data,
			func(k uint64) uint64 { return core.Mix64(k) },
			func(k uint64, v int64, st *int64, emit func(core.KV[uint64, int64])) {
				*st += v
				emit(core.KV[uint64, int64]{Key: k, Val: *st})
			}, nil)
		p := dataflow.NewProbe(w, counts)
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()

	for epoch := core.Time(0); epoch < 50; epoch++ {
		dataIns[int(epoch)%workers].SendAt(epoch, core.KV[uint64, int64]{Key: uint64(epoch), Val: 1})
		if epoch == 20 {
			ctlIns[0].SendAt(epoch, core.Move{Bin: 1, Worker: 1})
		}
		for _, h := range ctlIns {
			h.AdvanceTo(epoch + 1)
		}
		for _, h := range dataIns {
			h.AdvanceTo(epoch + 1)
		}
		// Liveness: the output frontier must reach the new epoch without
		// further input.
		for spin := 0; probe.Frontier() < epoch+1; spin++ {
			if spin > 1e8 {
				t.Fatalf("output frontier stuck at %v awaiting %v", probe.Frontier(), epoch+1)
			}
		}
	}
	for _, h := range ctlIns {
		h.Close()
	}
	for _, h := range dataIns {
		h.Close()
	}
	exec.Wait()
	if !probe.Done() {
		t.Fatal("probe not done after Wait")
	}
}

// TestNotificatorMigrates: post-dated records scheduled before a migration
// fire on the new owner after it.
func TestNotificatorMigrates(t *testing.T) {
	const workers = 2
	type rec struct {
		Key uint64
		Due core.Time
	}
	var mu sync.Mutex
	fired := make(map[uint64]int) // key -> worker where the notification fired

	handle := &core.Handle[rec, int64, string]{}

	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[rec]
	var ctlIns []*dataflow.InputHandle[core.Move]
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[rec](w, "input")
		dataIns = append(dataIns, in)
		idx := w.Index()
		out := core.Unary(w, core.Config{Name: "timer", LogBins: 2},
			ctlStream, data,
			func(r rec) uint64 { return core.Mix64(r.Key) },
			func() *int64 { return new(int64) },
			func(tm core.Time, r rec, st *int64, n *core.Notificator[rec, int64, string], emit func(string)) {
				if r.Due > tm {
					// First delivery: schedule for the due time.
					n.NotifyAt(r.Due, rec{Key: r.Key})
					return
				}
				mu.Lock()
				fired[r.Key] = idx
				mu.Unlock()
				emit(fmt.Sprintf("fired %d", r.Key))
			}, handle)
		sink := w.NewOp("sink", 0)
		dataflow.Connect(sink, out, dataflow.Pipeline[string]{})
		sink.Build(func(c *dataflow.OpCtx) {
			c.ForEach(0, func(core.Time, any) {})
		})
	})
	exec.Start()

	// Key 9 hashes to some bin; schedule its timer at t=5 due t=40, migrate
	// every bin to worker 1 at t=20.
	dataIns[0].SendAt(5, rec{Key: 9, Due: 40})
	var moves []core.Move
	for b := 0; b < 4; b++ {
		moves = append(moves, core.Move{Bin: b, Worker: 1})
	}
	ctlIns[0].SendAt(20, moves...)
	for e := core.Time(0); e <= 50; e++ {
		for _, h := range ctlIns {
			h.AdvanceTo(e + 1)
		}
		for _, h := range dataIns {
			h.AdvanceTo(e + 1)
		}
	}
	for _, h := range ctlIns {
		h.Close()
	}
	for _, h := range dataIns {
		h.Close()
	}
	exec.Wait()

	mu.Lock()
	defer mu.Unlock()
	if w, ok := fired[9]; !ok {
		t.Fatal("timer never fired")
	} else if w != 1 {
		t.Errorf("timer fired on worker %d, want 1 (after migration)", w)
	}
}
