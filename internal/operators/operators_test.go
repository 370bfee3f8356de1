package operators_test

import (
	"sync"
	"testing"

	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// runSingle builds a 1-worker dataflow around a stream transform and feeds
// it ints at distinct times, returning the sink's observations.
func runSingle[T any](t *testing.T, inputs []int, build func(w *dataflow.Worker, s dataflow.Stream[int]) dataflow.Stream[T]) []T {
	t.Helper()
	var mu sync.Mutex
	var got []T
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[int]
	exec.Build(func(w *dataflow.Worker) {
		h, s := dataflow.NewInput[int](w, "in")
		in = h
		out := build(w, s)
		operators.Sink(w, "sink", out, func(_ dataflow.Time, data []T) {
			mu.Lock()
			got = append(got, data...)
			mu.Unlock()
		})
	})
	exec.Start()
	for i, v := range inputs {
		in.SendAt(dataflow.Time(i+1), v)
		in.AdvanceTo(dataflow.Time(i + 2))
	}
	in.Close()
	exec.Wait()
	return got
}

func TestMap(t *testing.T) {
	got := runSingle(t, []int{1, 2, 3}, func(w *dataflow.Worker, s dataflow.Stream[int]) dataflow.Stream[int] {
		return operators.Map(w, "double", s, func(x int) int { return x * 2 })
	})
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	sum := 0
	for _, v := range got {
		sum += v
	}
	if sum != 12 {
		t.Errorf("sum = %d, want 12", sum)
	}
}

func TestFilter(t *testing.T) {
	got := runSingle(t, []int{1, 2, 3, 4, 5, 6}, func(w *dataflow.Worker, s dataflow.Stream[int]) dataflow.Stream[int] {
		return operators.Filter(w, "even", s, func(x int) bool { return x%2 == 0 })
	})
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

// TestUnaryScheduledFiresWithoutData: a scheduled notification fires at a
// time with no input records.
func TestUnaryScheduledFiresWithoutData(t *testing.T) {
	var mu sync.Mutex
	var fired []dataflow.Time
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[int]
	exec.Build(func(w *dataflow.Worker) {
		h, s := dataflow.NewInput[int](w, "in")
		in = h
		out := operators.UnaryScheduled(w, "timer", s, dataflow.Pipeline[int]{},
			func() *int { return new(int) },
			func(tm dataflow.Time, data []int, _ *int, schedule func(dataflow.Time), emit func(int)) {
				if len(data) > 0 {
					schedule(tm + 10)
					return
				}
				mu.Lock()
				fired = append(fired, tm)
				mu.Unlock()
				emit(0)
			})
		operators.Sink(w, "sink", out, func(dataflow.Time, []int) {})
	})
	exec.Start()
	in.SendAt(5, 1)
	for e := dataflow.Time(6); e <= 20; e++ {
		in.AdvanceTo(e)
	}
	in.Close()
	exec.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("fired = %v, want [15]", fired)
	}
}

// TestStateMachinePerKeyIsolation: keys do not share state.
func TestStateMachinePerKeyIsolation(t *testing.T) {
	var mu sync.Mutex
	finals := map[string]int{}
	exec := dataflow.NewExecution(dataflow.Config{Workers: 2})
	var ins []*dataflow.InputHandle[operators.KV[string, int]]
	exec.Build(func(w *dataflow.Worker) {
		h, s := dataflow.NewInput[operators.KV[string, int]](w, "in")
		ins = append(ins, h)
		out := operators.StateMachine(w, "sum", s,
			func(k string) uint64 { return uint64(len(k)) * 2654435761 },
			func(k string, v int, st *int, emit func(operators.KV[string, int])) {
				*st += v
				emit(operators.KV[string, int]{Key: k, Val: *st})
			})
		operators.Sink(w, "sink", out, func(_ dataflow.Time, data []operators.KV[string, int]) {
			mu.Lock()
			for _, kv := range data {
				if kv.Val > finals[kv.Key] {
					finals[kv.Key] = kv.Val
				}
			}
			mu.Unlock()
		})
	})
	exec.Start()
	for i := 0; i < 90; i++ {
		k := []string{"a", "bb", "ccc"}[i%3]
		ins[i%2].SendAt(dataflow.Time(i+1), operators.KV[string, int]{Key: k, Val: 1})
	}
	for _, h := range ins {
		h.Close()
	}
	exec.Wait()
	for _, k := range []string{"a", "bb", "ccc"} {
		if finals[k] != 30 {
			t.Errorf("finals[%s] = %d, want 30", k, finals[k])
		}
	}
}
