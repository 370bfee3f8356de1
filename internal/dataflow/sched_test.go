package dataflow_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// TestNoLostWakeups races frontier changes against parking workers: drivers
// send tiny batches at future times and advance epochs irregularly, so
// deferred (frontier-driven) work keeps becoming ready while workers park.
// A scheduler that loses an activation — an operator with newly processable
// deferred work that is never re-run — hangs the drain and fails the
// deadline; a scheduler that schedules against stale frontiers trips the
// ordering check. Run with -race in CI.
func TestNoLostWakeups(t *testing.T) {
	const (
		workers = 4
		rounds  = 30
		epochs  = 40
	)
	for round := 0; round < rounds; round++ {
		var got atomic.Int64
		var misordered atomic.Int64
		exec := dataflow.NewExecution(dataflow.WithInboxSize(dataflow.Config{Workers: workers}, 2))
		inputs := make([]*dataflow.InputHandle[int], 0, workers)
		exec.Build(func(w *dataflow.Worker) {
			in, s := dataflow.NewInput[int](w, "input")
			inputs = append(inputs, in)
			// Exchange so every record crosses workers, then a notify
			// operator so every record defers until its time completes.
			ordered := operators.UnaryNotify(w, "order", s,
				dataflow.Exchange[int]{Hash: func(x int) uint64 { return uint64(x) * 0x9e3779b97f4a7c15 }},
				func() *dataflow.Time { last := dataflow.Time(0); return &last },
				func(tm dataflow.Time, data []int, last *dataflow.Time, emit func(int)) {
					if tm < *last {
						misordered.Add(1)
					}
					*last = tm
					for _, x := range data {
						emit(x)
					}
				})
			operators.Sink(w, "sink", ordered, func(_ dataflow.Time, data []int) {
				got.Add(int64(len(data)))
			})
		})
		exec.Start()

		var sent atomic.Int64
		done := make(chan struct{})
		for wi := range inputs {
			go func(wi int) {
				rng := rand.New(rand.NewSource(int64(round*workers + wi)))
				in := inputs[wi]
				for e := 1; e <= epochs; e++ {
					// Post-date some records so they sit deferred until the
					// epoch advances past them.
					n := rng.Intn(4)
					for i := 0; i < n; i++ {
						in.SendAt(dataflow.Time(e+rng.Intn(3)), wi*1000+e*10+i)
						sent.Add(1)
					}
					in.AdvanceTo(dataflow.Time(e))
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
				}
				in.Close()
			}(wi)
		}
		go func() {
			exec.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: drain deadlocked (lost wakeup); tracker:\n%s",
				round, exec.Tracker().Dump())
		}
		if got.Load() != sent.Load() {
			t.Fatalf("round %d: received %d records, sent %d", round, got.Load(), sent.Load())
		}
		if misordered.Load() != 0 {
			t.Fatalf("round %d: %d batches delivered behind the frontier", round, misordered.Load())
		}
	}
}

// exchangeWorkload drives epochs*perEpoch records through an
// input -> exchange -> sink dataflow on two workers: the
// route -> exchange -> apply hot path with no operator work on top.
// The driver paces itself against a probe with a bounded number of epochs
// in flight, the way the cluster harnesses do: an unpaced loop measures the
// allocator growing unbounded staging queues (and defeats the runtime's
// batch-buffer recycling, which needs consumption to keep up with
// production), not the per-record routing cost.
func exchangeWorkload(epochs, perEpoch int) {
	const window = 32
	exec := dataflow.NewExecution(dataflow.Config{Workers: 2})
	var inputs []*dataflow.InputHandle[uint64]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		in, s := dataflow.NewInput[uint64](w, "input")
		inputs = append(inputs, in)
		ex := operators.ExchangeBy(w, "exchange", s, func(x uint64) uint64 { return x })
		probe = dataflow.NewProbe(w, ex)
		operators.Sink(w, "sink", ex, func(dataflow.Time, []uint64) {})
	})
	exec.Start()
	for e := 1; e <= epochs; e++ {
		for wi, in := range inputs {
			batch := make([]uint64, perEpoch)
			for i := range batch {
				batch[i] = uint64(wi*perEpoch + i)
			}
			in.SendBatchAt(dataflow.Time(e), batch)
			in.AdvanceTo(dataflow.Time(e))
		}
		for e > window && probe.Frontier() < dataflow.Time(e-window) {
			time.Sleep(5 * time.Microsecond)
		}
	}
	for _, in := range inputs {
		in.Close()
	}
	exec.Wait()
}

// BenchmarkExchangeHotPath measures the per-record cost of the
// route -> exchange -> apply path (allocs/op is the regression target; the
// driver's one batch per epoch is part of the measurement).
func BenchmarkExchangeHotPath(b *testing.B) {
	b.ReportAllocs()
	exchangeWorkload(b.N, 256)
}

// TestExchangePathAllocsPerRecord pins the allocation count of the exchange
// hot path: the seed runtime spent ~1 allocation per record here (fresh
// OpCtx, per-peer append growth, map multiset churn). With recycled batch
// envelopes the steady state is 2 allocations per 512-record epoch — the
// driver's own input batches; partitions, forwarding copies, and interface
// boxes all come from the per-worker envelope pools — so the budget is
// 0.02 allocs/record, leaving ~4x headroom for map/slice growth.
func TestExchangePathAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful under -short")
	}
	const epochs, perEpoch = 200, 256
	// Warm up one run (lazy growth of queues, scratch, heaps), then measure.
	exchangeWorkload(epochs, perEpoch)
	allocs := testing.AllocsPerRun(3, func() {
		exchangeWorkload(epochs, perEpoch)
	})
	perRecord := allocs / float64(epochs*perEpoch*2)
	if perRecord > 0.02 {
		t.Errorf("exchange hot path allocates %.4f allocs/record (budget 0.02); run BenchmarkExchangeHotPath -benchmem to investigate", perRecord)
	}
}
