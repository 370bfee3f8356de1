package operators_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// wide is a record as wide as a NEXMark event, with its kind.
type wide struct {
	Kind uint8
	ID   uint64
	Pad  [35]uint64
}

// TestFanOutConsumesAdoptedBatch: one driver batch feeds two consumers, the
// way a NEXMark event stream feeds its person and auction projections.
// Each consumer's output must be exact, and the driver's buffer must be
// consumed exactly once: released (its bare envelope comes back for the
// next batch, so the run allocates no more than the driver does), not
// released twice (an adopted envelope's second release panics), and not
// kept — after a thousand batches the free lists hold less than one.
func TestFanOutConsumesAdoptedBatch(t *testing.T) {
	const batches, perBatch = 1000, 4096
	type digest struct{ n, sum, sq uint64 }
	var got [2]digest
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[wide]
	var probes [2]*dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		h, s := dataflow.NewInput[wide](w, "events")
		in = h
		for k := range probes {
			kept := operators.Filter(w, fmt.Sprintf("kind-%d", k), s, func(r wide) bool { return r.Kind == uint8(k) })
			operators.Sink(w, fmt.Sprintf("sink-%d", k), kept, func(_ dataflow.Time, data []wide) {
				for i := range data {
					d := &got[k]
					d.n, d.sum, d.sq = d.n+1, d.sum+data[i].ID, d.sq+data[i].ID*data[i].ID
				}
			})
			probes[k] = dataflow.NewProbe(w, kept)
		}
	})
	exec.Start()
	// The nexmark mix: of every 50 events one is a person (kind 0), three
	// are auctions (kind 1) and the rest bids (kind 2, which nobody keeps).
	kind := func(id uint64) uint8 {
		switch id % 50 {
		case 0:
			return 0
		case 1, 2, 3:
			return 1
		}
		return 2
	}
	var want [2]digest
	feed := func(e int) {
		batch := make([]wide, perBatch)
		for i := range batch {
			id := uint64(e*perBatch + i)
			batch[i].ID, batch[i].Kind = id, kind(id)
			if k := batch[i].Kind; k < 2 {
				d := &want[k]
				d.n, d.sum, d.sq = d.n+1, d.sum+id, d.sq+id*id
			}
		}
		in.SendBatchAt(dataflow.Time(e), batch)
		in.AdvanceTo(dataflow.Time(e + 1))
		for _, p := range probes {
			for p.Frontier() <= dataflow.Time(e) {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	var retained int64
	for e := 1; e <= batches; e++ {
		feed(e)
		retained = max(retained, exec.Retained().Envelopes[0])
	}
	// Count allocations over a few more batches with the collector off: a
	// collection's own bookkeeping allocates, and at one 1.2 MB batch per
	// epoch it would run every few batches.
	const counted = 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := mallocs()
	for e := batches + 1; e <= batches+counted; e++ {
		feed(e)
	}
	allocs := mallocs() - before
	t.Logf("free lists held at most %d bytes; %.2f allocations per batch with the driver's", retained, float64(allocs)/counted)
	in.Close()
	exec.Wait()

	if got != want {
		t.Fatalf("consumer outputs (count, sum, sum of squares) %v, want %v", got, want)
	}
	if bound := int64(perBatch * unsafe.Sizeof(wide{})); retained >= bound {
		t.Errorf("free lists held up to %d bytes, not below one input batch's %d: a driver's buffer is being kept", retained, bound)
	}
	if extra := float64(allocs)/counted - 1; extra > 0.1 {
		t.Errorf("%.2f allocations per batch beyond the driver's own: adopted envelopes are not coming back", extra)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
