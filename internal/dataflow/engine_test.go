package dataflow_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// TestPipelineMap checks that a single-worker map dataflow delivers every
// record exactly once and completes.
func TestPipelineMap(t *testing.T) {
	var sum atomic.Int64
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var input *dataflow.InputHandle[int]
	exec.Build(func(w *dataflow.Worker) {
		in, s := dataflow.NewInput[int](w, "input")
		input = in
		doubled := operators.Map(w, "double", s, func(x int) int { return 2 * x })
		operators.Sink(w, "sink", doubled, func(_ dataflow.Time, data []int) {
			for _, x := range data {
				sum.Add(int64(x))
			}
		})
	})
	exec.Start()
	for i := 1; i <= 100; i++ {
		input.SendAt(dataflow.Time(i), i)
	}
	input.Close()
	exec.Wait()
	if got, want := sum.Load(), int64(100*101); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestExchangeDistributes checks that records exchanged by key land on the
// worker the hash designates, with multiple workers.
func TestExchangeDistributes(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	seen := make(map[int]int) // record -> worker index
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	inputs := make([]*dataflow.InputHandle[int], 0, workers)
	exec.Build(func(w *dataflow.Worker) {
		in, s := dataflow.NewInput[int](w, "input")
		inputs = append(inputs, in)
		ex := operators.ExchangeBy(w, "exchange", s, func(x int) uint64 { return uint64(x) })
		idx := w.Index()
		operators.Sink(w, "sink", ex, func(_ dataflow.Time, data []int) {
			mu.Lock()
			for _, x := range data {
				seen[x] = idx
			}
			mu.Unlock()
		})
	})
	exec.Start()
	for i := 0; i < 1000; i++ {
		inputs[i%workers].SendAt(dataflow.Time(i), i)
	}
	for _, in := range inputs {
		in.Close()
	}
	exec.Wait()
	if len(seen) != 1000 {
		t.Fatalf("received %d records, want 1000", len(seen))
	}
	for x, w := range seen {
		if want := x % workers; w != want {
			t.Errorf("record %d landed on worker %d, want %d", x, w, want)
		}
	}
}

// TestProbeTracksEpochs verifies that a probe's frontier follows the input
// epoch and reaches None at completion.
func TestProbeTracksEpochs(t *testing.T) {
	exec := dataflow.NewExecution(dataflow.Config{Workers: 2})
	var input *dataflow.InputHandle[int]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		in, s := dataflow.NewInput[int](w, "input")
		if w.Index() == 0 {
			input = in
		} else {
			in.Close()
		}
		p := dataflow.NewProbe(w, s)
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()

	input.SendAt(5, 1, 2, 3)
	input.AdvanceTo(10)
	waitUntil(t, func() bool { return probe.Frontier() >= 10 })
	if probe.Frontier() == dataflow.None {
		t.Fatalf("probe done before input closed")
	}
	input.Close()
	exec.Wait()
	if probe.Frontier() != dataflow.None {
		t.Fatalf("probe not done after completion")
	}
}

// TestUnaryNotifyOrdersTimes verifies the frontier-driven operator sees
// times in order even when sent out of order within an epoch window.
func TestUnaryNotifyOrdersTimes(t *testing.T) {
	var mu sync.Mutex
	var order []dataflow.Time
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var input *dataflow.InputHandle[int]
	exec.Build(func(w *dataflow.Worker) {
		in, s := dataflow.NewInput[int](w, "input")
		input = in
		out := operators.UnaryNotify(w, "notify", s, dataflow.Pipeline[int]{},
			func() struct{} { return struct{}{} },
			func(tm dataflow.Time, data []int, _ struct{}, emit func(int)) {
				mu.Lock()
				order = append(order, tm)
				mu.Unlock()
				for _, x := range data {
					emit(x)
				}
			})
		operators.Sink(w, "sink", out, func(dataflow.Time, []int) {})
	})
	exec.Start()
	// Send at out-of-order times within the open epoch.
	input.SendAt(7, 1)
	input.SendAt(3, 2)
	input.SendAt(5, 3)
	input.Close()
	exec.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("saw %d times, want 3", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("times out of order: %v", order)
		}
	}
}

// TestStateMachineCounts runs the canonical word-count on the native state
// machine across workers and checks totals.
func TestStateMachineCounts(t *testing.T) {
	const workers = 3
	var mu sync.Mutex
	final := make(map[string]int)
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	inputs := make([]*dataflow.InputHandle[operators.KV[string, int]], 0, workers)
	exec.Build(func(w *dataflow.Worker) {
		in, s := dataflow.NewInput[operators.KV[string, int]](w, "input")
		inputs = append(inputs, in)
		counts := operators.StateMachine(w, "count", s,
			func(k string) uint64 { return hashString(k) },
			func(k string, v int, st *int, emit func(operators.KV[string, int])) {
				*st += v
				emit(operators.KV[string, int]{Key: k, Val: *st})
			})
		operators.Sink(w, "sink", counts, func(_ dataflow.Time, data []operators.KV[string, int]) {
			mu.Lock()
			for _, kv := range data {
				if kv.Val > final[kv.Key] {
					final[kv.Key] = kv.Val
				}
			}
			mu.Unlock()
		})
	})
	exec.Start()
	words := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 500; i++ {
		w := words[i%len(words)]
		inputs[i%workers].SendAt(dataflow.Time(i), operators.KV[string, int]{Key: w, Val: 1})
	}
	for _, in := range inputs {
		in.Close()
	}
	exec.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, w := range words {
		if final[w] != 100 {
			t.Errorf("count[%s] = %d, want 100", w, final[w])
		}
	}
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// waitUntil polls cond until it holds or a deadline passes. It must yield
// between polls: the condition is advanced by the worker goroutines, and a
// busy spin can exhaust its iterations before the scheduler ever runs them.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
