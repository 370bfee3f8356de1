package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// TestMigrationToSelfIsNoop: moves that assign a bin to its current owner
// change nothing and transfer no state.
func TestMigrationToSelfIsNoop(t *testing.T) {
	const workers = 2
	handle := &core.Handle[core.KV[uint64, int64], core.MapState[uint64, int64], core.KV[uint64, int64]]{}
	inputs := make([][]kvAt, workers)
	expect := make(map[uint64]int64)
	for i := 0; i < 400; i++ {
		k := uint64(i % 32)
		inputs[i%workers] = append(inputs[i%workers], kvAt{t: core.Time(i % 50), key: k, val: 1})
		expect[k]++
	}
	// Every bin "moves" to its initial owner.
	var moves []core.Move
	for b := 0; b < 1<<3; b++ {
		moves = append(moves, core.Move{Bin: b, Worker: core.InitialWorker(b, workers)})
	}
	res := runWordCountWithHandle(t, workers, 3, inputs, map[core.Time][]core.Move{25: moves}, handle)
	for k, want := range expect {
		if res.finals[k] != want {
			t.Errorf("count[%d] = %d, want %d", k, res.finals[k], want)
		}
	}
	if got := handle.Migrated(0) + handle.Migrated(1); got != 0 {
		t.Errorf("self-moves migrated %d bins, want 0", got)
	}
}

// TestRepeatedMigrations thrash bins back and forth; totals must hold and
// bins must not be duplicated or lost.
func TestRepeatedMigrations(t *testing.T) {
	const workers, logBins = 3, 3
	rng := rand.New(rand.NewSource(21))
	inputs := make([][]kvAt, workers)
	expect := make(map[uint64]int64)
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(128))
		inputs[i%workers] = append(inputs[i%workers], kvAt{t: core.Time(rng.Intn(300)), key: k, val: 1})
		expect[k]++
	}
	plan := make(map[core.Time][]core.Move)
	for step := 0; step < 20; step++ {
		tm := core.Time(10 + step*14)
		var moves []core.Move
		for b := 0; b < 1<<logBins; b++ {
			moves = append(moves, core.Move{Bin: b, Worker: rng.Intn(workers)})
		}
		plan[tm] = moves
	}
	res := runWordCount(t, workers, logBins, inputs, plan)
	if len(res.finals) != len(expect) {
		t.Fatalf("key count %d, want %d", len(res.finals), len(expect))
	}
	for k, want := range expect {
		if res.finals[k] != want {
			t.Errorf("count[%d] = %d, want %d", k, res.finals[k], want)
		}
	}
}

// TestControlOnlyNoData: a dataflow with configuration commands but no data
// still completes (migrating empty bins is legal).
func TestControlOnlyNoData(t *testing.T) {
	const workers = 2
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[core.KV[uint64, int64]]
	var ctlIns []*dataflow.InputHandle[core.Move]
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[core.KV[uint64, int64]](w, "input")
		dataIns = append(dataIns, in)
		out := core.StateMachine(w, core.Config{Name: "count", LogBins: 2},
			ctlStream, data, core.Mix64,
			func(k uint64, v int64, st *int64, emit func(int64)) { *st += v; emit(*st) },
			nil)
		dataflow.NewProbe(w, out)
	})
	exec.Start()
	ctlIns[0].SendAt(5, core.Move{Bin: 0, Worker: 1}, core.Move{Bin: 1, Worker: 0})
	for e := core.Time(0); e < 20; e++ {
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
	exec.Wait() // must terminate
}

// TestSingleWorker: megaphone on one worker degenerates gracefully (all
// moves are self-moves or no-ops).
func TestSingleWorker(t *testing.T) {
	inputs := [][]kvAt{nil}
	expect := make(map[uint64]int64)
	for i := 0; i < 200; i++ {
		k := uint64(i % 16)
		inputs[0] = append(inputs[0], kvAt{t: core.Time(i), key: k, val: 1})
		expect[k]++
	}
	res := runWordCount(t, 1, 2, inputs, map[core.Time][]core.Move{
		50: {{Bin: 0, Worker: 0}, {Bin: 3, Worker: 0}},
	})
	for k, want := range expect {
		if res.finals[k] != want {
			t.Errorf("count[%d] = %d, want %d", k, res.finals[k], want)
		}
	}
}

// runWordCountWithHandle is runWordCount but with a caller-provided handle.
func runWordCountWithHandle(t *testing.T, workers, logBins int, inputs [][]kvAt, plan map[core.Time][]core.Move, handle *core.Handle[core.KV[uint64, int64], core.MapState[uint64, int64], core.KV[uint64, int64]]) wcResult {
	t.Helper()
	var mu sync.Mutex
	res := wcResult{finals: make(map[uint64]int64)}

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
