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

	// A driver's buffer never enters the runtime's free list: adoptEnv
	// leaves the pooled envelope and its buffer alone, and the last release
	// of an adopted envelope (here its owner's, as when the destination is
	// retired or there are no out edges) drops the driver's slice, keeping
	// only the bare envelope for the next adoption.
	held := w.envRetained.Load()
	ow := adoptEnv(w, []uint64{7})
	if pooled(w) != 1 {
		t.Fatalf("adoptEnv took an envelope from the runtime's free list")
	}
	ow.release(w)
	if ow.s != nil {
		t.Fatalf("released adopted envelope still references the driver's buffer")
	}
	if pooled(w) != 2 || w.envRetained.Load() != held {
		t.Fatalf("after an adopted release: %d envelopes pooled holding %d bytes, want 2 holding %d",
			pooled(w), w.envRetained.Load(), held)
	}
	if again := adoptEnv(w, []uint64{8}); again != ow || again.refs.Load() != 1 || again.s[0] != 8 {
		t.Fatalf("adoptEnv did not reuse the bare adopted envelope as an owned one")
	}
	if got := getEnv[uint64](w, 4); got != sh || cap(got.s) < 4 {
		t.Fatalf("the runtime's pooled buffer was not kept for the next build")
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

// TestForwardAndBuild pins the two ways an operator passes records on
// without SendBatch's old copy. A forwarder keeps its input batch
// (TakeEachBatch) and sends that very envelope on (SendOwned); a builder
// reads the lent slice in place and appends what it derives into a
// recycled envelope (NewBatch). The sink must see both streams intact
// while the runtime drops the driver's buffers and recycles its own
// underneath.
func TestForwardAndBuild(t *testing.T) {
	exec := NewExecution(Config{Workers: 1})
	var in *InputHandle[uint64]
	var fwdGot, builtGot []uint64
	collect := func(w *Worker, name string, s Stream[uint64], got *[]uint64) {
		sink := w.NewOp(name, 0)
		Connect(sink, s, Pipeline[uint64]{})
		sink.Build(func(c *OpCtx) {
			ForEachBatch(c, 0, func(_ Time, data []uint64) {
				*got = append(*got, data...)
			})
		})
	}
	exec.Build(func(w *Worker) {
		h, s := NewInput[uint64](w, "in")
		in = h
		fwd := w.NewOp("forward", 1)
		Connect(fwd, s, Pipeline[uint64]{})
		fwdOut := fwd.Build(func(c *OpCtx) {
			TakeEachBatch(c, 0, func(t Time, b Batch[uint64]) { SendOwned(c, 0, t, b) })
		})
		build := w.NewOp("build", 1)
		Connect(build, s, Pipeline[uint64]{})
		builtOut := build.Build(func(c *OpCtx) {
			ForEachBatch(c, 0, func(t Time, data []uint64) {
				out := NewBatch[uint64](c, len(data))
				for i := range data {
					out.Recs = append(out.Recs, data[i]+1)
				}
				SendOwned(c, 0, t, out)
			})
		})
		collect(w, "fwd-sink", Typed[uint64](fwdOut[0]), &fwdGot)
		collect(w, "built-sink", Typed[uint64](builtOut[0]), &builtGot)
	})
	exec.Start()
	const n, epochs = 64, 20
	for e := 1; e <= epochs; e++ {
		batch := make([]uint64, n)
		for i := range batch {
			batch[i] = uint64(i) * 3
		}
		in.SendBatchAt(Time(e), batch)
		in.AdvanceTo(Time(e + 1))
	}
	in.Close()
	exec.Wait()
	for _, c := range []struct {
		name string
		got  []uint64
		add  uint64
	}{{"forwarded", fwdGot, 0}, {"built", builtGot, 1}} {
		if len(c.got) != epochs*n {
			t.Fatalf("%s: sink saw %d records, want %d", c.name, len(c.got), epochs*n)
		}
		for i, v := range c.got {
			if want := uint64(i%n)*3 + c.add; v != want {
				t.Fatalf("%s record %d corrupted: got %d want %d (buffer recycled while referenced?)", c.name, i, v, want)
			}
		}
	}
}

// TestAdoptedReleasedTwicePanics: an adopted envelope starts owned, so a
// release past zero can only be a consumer releasing twice, and it must be
// loud — the bare envelope may already carry the driver's next batch.
func TestAdoptedReleasedTwicePanics(t *testing.T) {
	w := &Worker{}
	e := adoptEnv(w, []uint64{1})
	e.release(w)
	defer func() {
		if recover() == nil {
			t.Fatal("second release of an adopted envelope did not panic")
		}
	}()
	e.release(w)
}
