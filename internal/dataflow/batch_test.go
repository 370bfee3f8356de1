package dataflow

import (
	"sync"
	"testing"
)

// pooled counts the envelopes across all of w's per-type free lists.
func pooled(w *Worker) int {
	n := 0
	for i := range w.envPools {
		n += w.envPools[i].free.Len()
	}
	return n
}

// TestEnvelopeRefcountAndPool pins the envelope lifecycle at the unit
// level: borrowed vs owned creation, per-enqueue references, recycling on
// the releasing worker, and type-segregated free lists serving each element
// type its own envelopes.
func TestEnvelopeRefcountAndPool(t *testing.T) {
	w := &Worker{}

	// Borrowed envelope: one consumer reference, recycled on release.
	e := getEnv[uint64](w, 4)
	e.s = append(e.s, 1, 2, 3)
	e.incref()
	e.release(w)
	if pooled(w) != 1 {
		t.Fatalf("pool has %d envelopes after release, want 1", pooled(w))
	}
	if got := getEnv[uint64](w, 4); got != e {
		t.Fatalf("pool did not return the recycled envelope")
	} else if len(got.s) != 0 {
		t.Fatalf("recycled envelope not cleared: %v", got.s)
	}
	// Shared envelope (broadcast): recycled only by the last release.
	sh := getEnv[uint64](w, 4) // reuses e; pool is empty again
	sh.incref()
	sh.incref()
	sh.incref() // three consumers
	sh.release(w)
	sh.release(w)
	if pooled(w) != 0 {
		t.Fatalf("envelope recycled with a consumer outstanding")
	}
	sh.release(w)
	if pooled(w) != 1 {
		t.Fatalf("envelope not recycled by its last consumer")
	}

	// Owned envelope dropped without consumers (retired destination, no
	// out edges) recycles immediately. adoptEnv reuses the pooled struct,
	// so the pool round-trips through empty and back to one.
	ow := adoptEnv(w, []uint64{7})
	if pooled(w) != 0 {
		t.Fatalf("adoptEnv did not reuse the pooled envelope")
	}
	ow.release(w)
	if pooled(w) != 1 {
		t.Fatalf("owned envelope without consumers not recycled")
	}

	// Type segregation: each element type is served from its own list, so
	// a uint64 envelope sitting in the pool never satisfies (or blocks) a
	// string request.
	es := getEnv[string](w, 2)
	es.s = append(es.s, "x")
	es.incref()
	es.release(w)
	if got := getEnv[string](w, 1); got != es {
		t.Fatalf("per-type pool did not return the string envelope")
	}
	if got := getEnv[uint64](w, 1); got.refs.Load() != 0 {
		t.Fatalf("pooled uint64 envelope came back with refs %d", got.refs.Load())
	}
}

// TestEnvelopeConcurrentRelease exercises the atomic refcount: many
// goroutines releasing a shared envelope concurrently (as broadcast
// consumers on different workers do) must recycle it exactly once.
func TestEnvelopeConcurrentRelease(t *testing.T) {
	const consumers = 16
	for round := 0; round < 200; round++ {
		e := &batchEnv[int]{}
		for i := 0; i < consumers; i++ {
			e.incref()
		}
		ws := make([]*Worker, consumers)
		var wg sync.WaitGroup
		for i := 0; i < consumers; i++ {
			ws[i] = &Worker{}
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				e.release(w)
			}(ws[i])
		}
		wg.Wait()
		n := 0
		for _, w := range ws {
			n += pooled(w)
		}
		if n != 1 {
			t.Fatalf("round %d: shared envelope recycled %d times, want 1", round, n)
		}
	}
}

// TestSendBatchCopies pins the aliasing contract that makes forwarding
// safe: SendBatch leaves the caller's slice untouched and owned by the
// caller, so operators like Inspect and Concat may forward the very slice
// they received from ForEachBatch while the runtime recycles the original
// envelope underneath.
func TestSendBatchCopies(t *testing.T) {
	exec := NewExecution(Config{Workers: 1})
	var in *InputHandle[uint64]
	var got []uint64
	exec.Build(func(w *Worker) {
		h, s := NewInput[uint64](w, "in")
		in = h
		fwd := w.NewOp("forward", 1)
		Connect(fwd, s, Pipeline[uint64]{})
		outs := fwd.Build(func(c *OpCtx) {
			ForEachBatch(c, 0, func(t Time, data []uint64) {
				SendBatch(c, 0, t, data) // forward the borrowed slice
				// The batch must still be intact after SendBatch returns.
				for i, v := range data {
					if v != uint64(i)*3 {
						panic("SendBatch mutated the caller's slice")
					}
				}
			})
		})
		sink := w.NewOp("sink", 0)
		Connect(sink, Typed[uint64](outs[0]), Pipeline[uint64]{})
		sink.Build(func(c *OpCtx) {
			ForEachBatch(c, 0, func(_ Time, data []uint64) {
				got = append(got, data...)
			})
		})
	})
	exec.Start()
	const n = 64
	for e := 1; e <= 20; e++ {
		batch := make([]uint64, n)
		for i := range batch {
			batch[i] = uint64(i) * 3
		}
		in.SendBatchAt(Time(e), batch)
		in.AdvanceTo(Time(e + 1))
	}
	in.Close()
	exec.Wait()
	if len(got) != 20*n {
		t.Fatalf("sink saw %d records, want %d", len(got), 20*n)
	}
	for i, v := range got {
		if v != uint64(i%n)*3 {
			t.Fatalf("record %d corrupted: got %d want %d (buffer recycled while referenced?)", i, v, uint64(i%n)*3)
		}
	}
}
