package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"megaphone/internal/dataflow"
)

// TestLoadCheckpointBinsSubset: LoadCheckpointBins returns exactly the
// requested bins, reading each from the worker file the checkpoint's own
// assignment names, and rejects out-of-range bins.
func TestLoadCheckpointBinsSubset(t *testing.T) {
	dir := t.TempDir()
	const peers, logBins = 2, 2
	assignment := []int{1, 0, 1, 1}
	bins := map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]{
		0: mkBin(1, 3),
		1: mkBin(2, 500),
		2: mkBin(3, 4),
	}
	for w := 0; w < peers; w++ {
		writeTestCheckpoint(t, dir, 5, w, peers, logBins, assignment, bins)
	}

	// Bins 0 (worker 1), 1 (worker 0), 3 (worker 1, empty): spans both
	// worker files and includes an owned-but-empty bin.
	r, err := LoadCheckpointBins(dir, "test-op", 5, peers, []int{0, 1, 3}, TransferBinary.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Assignment, assignment) || r.LogBins != logBins || r.Epoch != 5 {
		t.Fatalf("restore metadata mismatch: %+v", r)
	}
	for _, b := range []int{0, 1} {
		payload, ok := r.Bins[b]
		if !ok {
			t.Fatalf("bin %d missing", b)
		}
		got := &BinState[KV[uint64, uint64], MapState[uint64, uint64]]{State: &MapState[uint64, uint64]{}}
		if err := TransferBinary.DecodeBin(got, payload); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.State, bins[b].State) {
			t.Fatalf("bin %d state mismatch", b)
		}
	}
	if _, ok := r.Bins[2]; ok {
		t.Fatal("bin 2 was not requested but appeared in the result")
	}
	if _, ok := r.Bins[3]; ok {
		t.Fatal("bin 3 was empty at the checkpoint but appeared in the result")
	}

	if _, err := LoadCheckpointBins(dir, "test-op", 5, peers, []int{4}, TransferBinary.Name()); err == nil {
		t.Fatal("out-of-range bin not rejected")
	}
}

// TestClampPending: pending records scheduled before the clamp time move up
// to it, later ones are untouched, and heap order survives.
func TestClampPending(t *testing.T) {
	b := &BinState[KV[uint64, uint64], MapState[uint64, uint64]]{}
	b.clampPending(10)
	if len(b.Pending) != 0 {
		t.Fatal("clamping an empty bin added pending records")
	}
	b.PushPending(3, KV[uint64, uint64]{Key: 3})
	b.PushPending(9, KV[uint64, uint64]{Key: 9})
	b.PushPending(5, KV[uint64, uint64]{Key: 5})
	b.clampPending(2)
	if ht, _ := b.headPending(); ht != 3 {
		t.Fatalf("nothing is before 2, but the head moved to %d", ht)
	}
	b.clampPending(6)
	var got []Time
	for len(b.Pending) > 0 {
		ht, _ := b.headPending()
		got = append(got, ht)
		b.Pending = b.Pending[1:]
		// re-heapify by rebuilding: popPendingAt would need exact times
		bb := &BinState[KV[uint64, uint64], MapState[uint64, uint64]]{Pending: b.Pending}
		bb.clampPending(0)
		b.Pending = bb.Pending
	}
	want := []Time{6, 6, 9}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped times %v, want %v", got, want)
	}
}

// TestRestoreMoveRebuildsState pins the crash-leave state path end to end
// in one process: execution A checkpoints at epoch 5 and exits; execution B
// starts empty (modeling the cluster continuing after a member died with
// its bins), and at epoch 7 restore commands reassign the "dead" worker 1's
// bins to worker 0, rebuilt from A's checkpoint. Records fed after the
// restore must observe the checkpointed counts, and the rebuilt bins must
// arrive through the normal install path (OnInstall fires on the new
// owner).
func TestRestoreMoveRebuildsState(t *testing.T) {
	dir := t.TempDir()
	const workers, logBins = 2, 2

	// One key per bin, so per-key counts map 1:1 to per-bin state.
	keyOf := make(map[int]uint64) // bin -> key
	for k := uint64(0); len(keyOf) < 1<<logBins; k++ {
		b := BinOf(Mix64(k), logBins)
		if _, ok := keyOf[b]; !ok {
			keyOf[b] = k
		}
	}

	type KVr = KV[uint64, int64]
	run := func(restoreAt Time, feed func(data []*dataflow.InputHandle[KVr], ctl []*dataflow.InputHandle[Move]), onInstall func(t Time, bin, worker int)) map[uint64]int64 {
		var mu sync.Mutex
		finals := make(map[uint64]int64)
		handle := &Handle[KVr, MapState[uint64, int64], KVr]{OnInstall: onInstall}
		exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
		var dataIns []*dataflow.InputHandle[KVr]
		var ctlIns []*dataflow.InputHandle[Move]
		exec.Build(func(w *dataflow.Worker) {
			ctl, ctlStream := dataflow.NewInput[Move](w, "control")
			ctlIns = append(ctlIns, ctl)
			in, data := dataflow.NewInput[KVr](w, "input")
			dataIns = append(dataIns, in)
			counts := StateMachine(w,
				Config{Name: "count", LogBins: logBins, Transfer: TransferBinary,
					Checkpoint: &CheckpointConfig{Dir: dir}},
				ctlStream, data,
				func(k uint64) uint64 { return Mix64(k) },
				func(k uint64, v int64, st *int64, emit func(KVr)) {
					*st += v
					emit(KVr{Key: k, Val: *st})
				},
				handle)
			sink := w.NewOp("sink", 0)
			dataflow.Connect(sink, counts, dataflow.Pipeline[KVr]{})
			sink.Build(func(c *dataflow.OpCtx) {
				dataflow.ForEachBatch(c, 0, func(_ Time, out []KVr) {
					mu.Lock()
					for _, kv := range out {
						if kv.Val > finals[kv.Key] {
							finals[kv.Key] = kv.Val
						}
					}
					mu.Unlock()
				})
			})
		})
		exec.Start()
		feed(dataIns, ctlIns)
		for _, h := range ctlIns {
			h.Close()
		}
		for _, h := range dataIns {
			h.Close()
		}
		exec.Wait()
		return finals
	}

	// Execution A: 3 units per key at epochs 1, 2, 3; checkpoint at 5.
	run(0, func(data []*dataflow.InputHandle[KVr], ctl []*dataflow.InputHandle[Move]) {
		for e := Time(1); e <= 3; e++ {
			for _, k := range keyOf {
				data[0].SendAt(e, KVr{Key: k, Val: 1})
			}
		}
		ctl[0].SendAt(5, CheckpointMove())
		for e := Time(0); e <= 6; e++ {
			for _, h := range ctl {
				h.AdvanceTo(e + 1)
			}
			for _, h := range data {
				h.AdvanceTo(e + 1)
			}
		}
	}, nil)

	// Execution B: restore worker 1's bins (round-robin: odd bins) onto
	// worker 0 at epoch 7, then add 2 units per restored key.
	var mu sync.Mutex
	installed := make(map[int]int) // bin -> installing worker
	var deadBins []int
	for b := 0; b < 1<<logBins; b++ {
		if InitialWorker(b, workers) == 1 {
			deadBins = append(deadBins, b)
		}
	}
	finals := run(7, func(data []*dataflow.InputHandle[KVr], ctl []*dataflow.InputHandle[Move]) {
		var moves []Move
		for _, b := range deadBins {
			moves = append(moves, RestoreMove(b, 0, 5))
		}
		ctl[0].SendAt(7, moves...)
		for e := Time(8); e <= 9; e++ {
			for _, b := range deadBins {
				data[0].SendAt(e, KVr{Key: keyOf[b], Val: 1})
			}
		}
		for e := Time(0); e <= 10; e++ {
			for _, h := range ctl {
				h.AdvanceTo(e + 1)
			}
			for _, h := range data {
				h.AdvanceTo(e + 1)
			}
		}
	}, func(_ Time, bin, worker int) {
		mu.Lock()
		installed[bin] = worker
		mu.Unlock()
	})

	for _, b := range deadBins {
		k := keyOf[b]
		if finals[k] != 5 {
			t.Errorf("bin %d key %d: count %d after restore, want 3 (checkpointed) + 2 (new)", b, k, finals[k])
		}
		if w, ok := installed[b]; !ok || w != 0 {
			t.Errorf("bin %d installed on worker %v, want 0 via the migration install path", b, installed[b])
		}
	}
	// Worker 0's own bins were never restored or fed in B.
	for b := 0; b < 1<<logBins; b++ {
		if InitialWorker(b, workers) == 0 {
			if v, ok := finals[keyOf[b]]; ok && v != 0 {
				t.Errorf("bin %d key %d: unexpected count %d in execution B", b, keyOf[b], v)
			}
		}
	}
}
