package core_test

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// codecCalls wraps the state codec and counts the bins it encodes and
// decodes.
type codecCalls struct {
	core.Codec
	enc, dec atomic.Int64
}

func (c *codecCalls) EncodeBin(bin core.Migratable, buf []byte) ([]byte, error) {
	c.enc.Add(1)
	return c.Codec.EncodeBin(bin, buf)
}

func (c *codecCalls) DecodeBin(bin core.Migratable, data []byte) error {
	c.dec.Add(1)
	return c.Codec.DecodeBin(bin, data)
}

// timer is a record that, delivered before Due, schedules itself for
// redelivery at Due through the Notificator. From is the worker that
// scheduled it.
type timer struct {
	Key  uint64
	Due  core.Time
	From int
}

// fire is one redelivered timer: where it was scheduled and where and when
// it fired.
type fire struct {
	key      uint64
	at       core.Time
	due      core.Time
	from, on int
}

type timerRun struct {
	out      []string
	fires    []fire
	installs map[int][]int // bin -> workers it was installed on
}

const (
	timerWorkers = 2
	timerLogBins = 3
	timerKeys    = 96
)

// timerBin is the bin a timer key hashes to.
func timerBin(k uint64) int { return core.BinOf(core.Mix64(k), timerLogBins) }

// runTimers runs the timer operator on two workers of one process under
// the given plan (time -> moves). Every key is delivered once, at k%20, and
// is due at 20+k, a time no other key is due at; so the bins carry pending
// records across every move a plan between epochs 15 and 30 makes, and the
// running count a bin's timers emit does not depend on arrival order.
func runTimers(t *testing.T, plan map[core.Time][]core.Move, codec core.Codec) timerRun {
	t.Helper()
	var mu sync.Mutex
	res := timerRun{installs: map[int][]int{}}
	handle := &core.Handle[timer, int64, string]{
		OnInstall: func(_ core.Time, bin, worker int) {
			mu.Lock()
			res.installs[bin] = append(res.installs[bin], worker)
			mu.Unlock()
		},
	}
	exec := dataflow.NewExecution(dataflow.Config{Workers: timerWorkers})
	var dataIns []*dataflow.InputHandle[timer]
	var ctlIns []*dataflow.InputHandle[core.Move]
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		in, data := dataflow.NewInput[timer](w, "input")
		ctlIns, dataIns = append(ctlIns, ctl), append(dataIns, in)
		idx := w.Index()
		out := core.Unary(w, core.Config{Name: "timers", LogBins: timerLogBins, Transfer: codec},
			ctlStream, data,
			func(r timer) uint64 { return core.Mix64(r.Key) },
			func() *int64 { return new(int64) },
			func(tm core.Time, r timer, fired *int64, n *core.Notificator[timer, int64, string], emit func(string)) {
				if r.Due > tm {
					n.NotifyAt(r.Due, timer{Key: r.Key, Due: r.Due, From: idx})
					return
				}
				*fired++
				mu.Lock()
				res.fires = append(res.fires, fire{key: r.Key, at: tm, due: r.Due, from: r.From, on: idx})
				mu.Unlock()
				emit(fmt.Sprintf("%d@%d #%d", r.Key, tm, *fired))
			}, handle)
		sink := w.NewOp("sink", 0)
		dataflow.Connect(sink, out, dataflow.Pipeline[string]{})
		sink.Build(func(c *dataflow.OpCtx) {
			dataflow.ForEachBatch(c, 0, func(_ core.Time, lines []string) {
				mu.Lock()
				res.out = append(res.out, lines...)
				mu.Unlock()
			})
		})
	})
	exec.Start()
	for e := core.Time(0); e <= 20+timerKeys; e++ {
		if moves, ok := plan[e]; ok {
			ctlIns[0].SendAt(e, moves...)
		}
		for k := uint64(0); k < timerKeys; k++ {
			if core.Time(k%20) == e {
				dataIns[k%timerWorkers].SendAt(e, timer{Key: k, Due: 20 + core.Time(k)})
			}
		}
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
	exec.Wait()
	sort.Strings(res.out)
	return res
}

// TestLocalMoveHandsOverTheBin: a bin moving between two workers of one
// process is handed over as it is — the codec is never called — and still
// installs exactly once per move, carries its pending Notificator records to
// the new owner, where they fire at their times, and leaves the output equal
// to an unmigrated run's. Both a fluid plan (one bin per epoch) and an
// all-at-once plan (every bin at one epoch) swap every bin's owner.
func TestLocalMoveHandsOverTheBin(t *testing.T) {
	ref := runTimers(t, nil, nil)
	if len(ref.out) != timerKeys {
		t.Fatalf("unmigrated run fired %d timers, want %d", len(ref.out), timerKeys)
	}
	const bins = 1 << timerLogBins
	swap := func(b int) core.Move { return core.Move{Bin: b, Worker: 1 - core.InitialWorker(b, timerWorkers)} }
	fluid := map[core.Time][]core.Move{}
	var all []core.Move
	for b := 0; b < bins; b++ {
		fluid[core.Time(15+2*b)] = []core.Move{swap(b)}
		all = append(all, swap(b))
	}
	for name, plan := range map[string]map[core.Time][]core.Move{
		"fluid":       fluid,
		"all-at-once": {20: all},
	} {
		t.Run(name, func(t *testing.T) {
			codec := &codecCalls{Codec: core.TransferBinary}
			res := runTimers(t, plan, codec)
			if n, m := codec.enc.Load(), codec.dec.Load(); n != 0 || m != 0 {
				t.Errorf("in-process moves called the codec: %d encodes, %d decodes", n, m)
			}
			moveAt := map[int]core.Time{}
			for tm, moves := range plan {
				for _, m := range moves {
					moveAt[m.Bin] = tm
				}
			}
			owner := func(bin int, tm core.Time) int {
				if tm >= moveAt[bin] {
					return swap(bin).Worker
				}
				return core.InitialWorker(bin, timerWorkers)
			}
			for b := 0; b < bins; b++ {
				if got, want := res.installs[b], []int{swap(b).Worker}; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("bin %d installed on workers %v, want %v", b, got, want)
				}
			}
			carried := 0
			for _, f := range res.fires {
				b := timerBin(f.key)
				if f.at != f.due {
					t.Errorf("key %d (bin %d) fired at %d, due %d", f.key, b, f.at, f.due)
				}
				if want := owner(b, f.due); f.on != want {
					t.Errorf("key %d (bin %d) fired on worker %d at %d, want %d", f.key, b, f.on, f.at, want)
				}
				if f.from != f.on {
					carried++
				}
			}
			if carried == 0 {
				t.Error("no pending record was scheduled before its bin moved and fired after")
			}
			if fmt.Sprint(res.out) != fmt.Sprint(ref.out) {
				t.Errorf("output differs from the unmigrated run:\n got %v\nwant %v", res.out, ref.out)
			}
		})
	}
}
