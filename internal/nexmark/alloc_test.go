package nexmark_test

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/nexmark"
	"megaphone/internal/operators"
)

// TestFilterPersonsAllocsPerBatch pins the stateless front of the NEXMark
// queries at zero allocations per batch once warm: Filter and the Persons
// projection read their input in place and build their output in recycled
// envelopes, so what a batch costs beyond the driver's own buffer is
// nothing. The driver's batches are built before the measurement, and the
// collector is off during it (its bookkeeping allocates).
func TestFilterPersonsAllocsPerBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful under -short")
	}
	const perBatch, perRun, runs = 256, 50, 4
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[nexmark.Event]
	var probe *dataflow.Probe
	var persons atomic.Int64
	exec.Build(func(w *dataflow.Worker) {
		h, events := dataflow.NewInput[nexmark.Event](w, "events")
		in = h
		kept := operators.Filter(w, "no-bids", events, func(e nexmark.Event) bool { return e.Kind != nexmark.BidKind })
		out := nexmark.Persons(w, "persons", kept)
		operators.Sink(w, "sink", out, func(_ dataflow.Time, data []nexmark.Person) { persons.Add(int64(len(data))) })
		probe = dataflow.NewProbe(w, out)
	})
	exec.Start()
	defer func() {
		in.Close()
		exec.Wait()
	}()

	gen := nexmark.NewGen(nexmark.GenConfig{})
	epoch := 0
	batches := make([][]nexmark.Event, (runs+2)*perRun) // the warm-up, AllocsPerRun's own, and the measured runs
	for i := range batches {
		batches[i] = gen.Batch(0, 1, dataflow.Time(i+1), perBatch, perBatch)
	}
	feed := func() {
		for range perRun {
			epoch++
			in.SendBatchAt(dataflow.Time(epoch), batches[epoch-1])
			in.AdvanceTo(dataflow.Time(epoch + 1))
			for probe.Frontier() <= dataflow.Time(epoch) {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	feed() // warm the free lists
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perBatchAllocs := testing.AllocsPerRun(runs, feed) / perRun
	if persons.Load() == 0 {
		t.Fatal("the pipeline produced no persons: the pin measures nothing")
	}
	t.Logf("%.3f allocations per batch of %d events", perBatchAllocs, perBatch)
	if perBatchAllocs > 0.02 {
		t.Errorf("a warm Filter -> Persons pipeline allocates %.3f objects per batch, want 0", perBatchAllocs)
	}
}
