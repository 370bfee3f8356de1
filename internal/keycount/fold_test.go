package keycount

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// TestPrefetchLeavesStateUnchanged: the hash-count Prefetch is a read, so
// prefetching a key the bin does not hold must not insert it.
func TestPrefetchLeavesStateUnchanged(t *testing.T) {
	ops := hashCountOps(nil)
	s := ops.NewState()
	s.M[1] = 5
	ops.Prefetch(1, s)
	ops.Prefetch(2, s)
	if len(s.M) != 1 || s.M[1] != 5 {
		t.Errorf("prefetching keys 1 (held) and 2 (absent) left the bin as %v, want map[1:5]", s.M)
	}
}

// BenchmarkFoldPrefetch runs the hash-count operator on one worker over 128
// bins warmed with 2^21 keys (a state well past any last-level cache), with
// and without its Prefetch, at the steady state's batch of 500 records and
// the warm load's 16 384. It reports ns/rec, the recorded basis of
// core.PrefetchChunk: every sub-benchmark folds the same uniform keys, so
// the prefetch pass is the only difference within a batch size.
func BenchmarkFoldPrefetch(b *testing.B) {
	for _, batch := range []int{500, 1 << 14} {
		for _, prefetch := range []bool{false, true} {
			b.Run(fmt.Sprintf("batch=%d/prefetch=%v", batch, prefetch), func(b *testing.B) {
				benchFold(b, batch, prefetch)
			})
		}
	}
}

func benchFold(b *testing.B, batch int, prefetch bool) {
	const logBins, logKeys, window = 7, 21, 8
	ops := hashCountOps(nil)
	if !prefetch {
		ops.Prefetch = nil
	}
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[uint64]
	var ctl *dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		var ctlStream dataflow.Stream[core.Move]
		var data dataflow.Stream[uint64]
		ctl, ctlStream = dataflow.NewInput[core.Move](w, "control")
		in, data = dataflow.NewInput[uint64](w, "data")
		probe = dataflow.NewProbe(w, core.Operator(w, core.Config{Name: "hash-count", LogBins: logBins}, ctlStream, data, ops, nil))
	})
	exec.Start()
	defer func() {
		ctl.Close()
		in.Close()
		exec.Wait()
	}()
	epoch := core.Time(0)
	advance := func() {
		epoch++
		ctl.AdvanceTo(epoch)
		in.AdvanceTo(epoch)
	}
	await := func(t core.Time) {
		for probe.Frontier() < t {
			runtime.Gosched()
		}
	}

	// Warm: every key once, so the timed batches increment and never grow
	// a map.
	const warm = 1 << 14
	for k := uint64(0); k < 1<<logKeys; k += warm {
		keys := make([]uint64, warm)
		for i := range keys {
			keys[i] = k + uint64(i)
		}
		in.SendBatchAt(epoch, keys)
	}
	advance()
	await(epoch)

	rng := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		keys := make([]uint64, batch)
		for j := range keys {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			keys[j] = rng & (1<<logKeys - 1)
		}
		in.SendBatchAt(epoch, keys)
		advance()
		if epoch > window {
			await(epoch - window)
		}
	}
	await(epoch)
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*batch), "ns/rec")
}
