package core_test

import (
	"runtime"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
	"megaphone/internal/progress"
)

// countOut is the hash-count output record.
type countOut struct{ Key, Count uint64 }

// phase is one stretch of a hashCountRun: epochs of perEpoch records per
// worker. A paced phase keeps at most four epochs ahead of the output
// frontier, the way a driver at a sustainable rate does; an unpaced one
// stages every epoch back to back, the way a catch-up burst or a warm load
// arrives.
type phase struct {
	epochs, perEpoch int
	paced            bool
}

// hashCountRun is a hash-count dataflow (F -> S -> sink) over 2 workers, 16
// bins and a fixed domain of keys, which it owns and drives. Its S runs the
// prefetch pass, so the allocation pins cover both passes of the apply loop.
// A scheduling run (startCountRun(true)) also has every fresh record schedule
// itself for the next time through the Notificator, and counts it again
// when it is replayed there.
type hashCountRun struct {
	exec    *dataflow.Execution
	inputs  []*dataflow.InputHandle[uint64]
	ctls    []*dataflow.InputHandle[core.Move]
	probe   *dataflow.Probe
	epoch   int
	outputs []int64 // per worker, written by its sink
}

const hashCountDomain = 1 << 15

// replayed marks a record S replays from a bin's pending heap.
const replayed = 1 << 63

func startHashCount() *hashCountRun { return startCountRun(false) }

func startCountRun(schedule bool) *hashCountRun {
	const workers, logBins = 2, 4
	r := &hashCountRun{outputs: make([]int64, workers)}
	r.exec = dataflow.NewExecution(dataflow.Config{Workers: workers})
	r.exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		r.ctls = append(r.ctls, ctl)
		in, data := dataflow.NewInput[uint64](w, "data")
		r.inputs = append(r.inputs, in)
		out := core.Operator(w,
			core.Config{Name: "hash-count", LogBins: logBins},
			ctlStream, data,
			core.Ops[uint64, map[uint64]uint64, countOut]{
				Hash:     func(k uint64) uint64 { return core.Mix64(k) },
				NewState: func() *map[uint64]uint64 { m := make(map[uint64]uint64); return &m },
				Fold: func(t core.Time, k uint64, s *map[uint64]uint64, n *core.Notificator[uint64, map[uint64]uint64, countOut], emit func(countOut)) {
					if k&replayed != 0 {
						(*s)[k&^replayed]++
						return
					}
					(*s)[k]++
					emit(countOut{Key: k, Count: (*s)[k]})
					if schedule {
						n.NotifyAt(t+1, k|replayed)
					}
				},
				Prefetch: func(k uint64, s *map[uint64]uint64) { _ = (*s)[k] },
			}, nil)
		seen := &r.outputs[w.Index()]
		operators.Sink(w, "sink", out, func(_ core.Time, data []countOut) { *seen += int64(len(data)) })
		r.probe = dataflow.NewProbe(w, out)
	})
	r.exec.Start()
	return r
}

// drive runs one phase and returns once its last epoch is complete.
func (r *hashCountRun) drive(p phase) {
	const window = 4
	for i := 0; i < p.epochs; i++ {
		r.epoch++
		t := core.Time(r.epoch)
		for wi, in := range r.inputs {
			batch := make([]uint64, p.perEpoch)
			for k := range batch {
				batch[k] = uint64((r.epoch*p.perEpoch*len(r.inputs) + wi*p.perEpoch + k) % hashCountDomain)
			}
			in.SendBatchAt(t, batch)
		}
		if !p.paced {
			continue
		}
		r.advanceTo(t + 1)
		for t > window && r.probe.Frontier() < t-window {
			time.Sleep(5 * time.Microsecond)
		}
	}
	r.advanceTo(core.Time(r.epoch + 1))
	for r.probe.Frontier() < core.Time(r.epoch+1) {
		time.Sleep(20 * time.Microsecond)
	}
}

func (r *hashCountRun) advanceTo(t core.Time) {
	for _, h := range r.ctls {
		h.AdvanceTo(t)
	}
	for _, in := range r.inputs {
		in.AdvanceTo(t)
	}
}

func (r *hashCountRun) finish() {
	for _, h := range r.ctls {
		h.Close()
	}
	for _, in := range r.inputs {
		in.Close()
	}
	r.exec.Wait()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

var (
	burst  = phase{epochs: 64, perEpoch: 16384}
	steady = phase{epochs: 2000, perEpoch: 500, paced: true}
)

// afterBurst keeps TestBurstIsGivenBack's finished run reachable, so that
// `go test -run TestBurstIsGivenBack -memprofile` (CI uploads one) shows
// under inuse_space what the workers still hold after burst + steady: bin
// state, and whatever the free lists did not give back.
var afterBurst *hashCountRun

// TestBurstIsGivenBack: a warm load or catch-up burst grows every free list
// on the data path to the burst's size; once demand is back to the steady
// state the lists must be too. Retained bytes after burst + steady are
// compared with what the steady phase retains on its own, and the steady
// phase after the burst must still run out of recycled buffers.
func TestBurstIsGivenBack(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two million records")
	}
	alone := startHashCount()
	alone.drive(steady)
	want := alone.exec.Retained().Envelopes
	wantLive := liveHeap()
	alone.finish()

	r := startHashCount()
	r.drive(burst)
	peak := r.exec.Retained().Envelopes
	before := mallocs()
	r.drive(steady)
	allocs := mallocs() - before
	got := r.exec.Retained().Envelopes
	gotLive := liveHeap()
	r.finish()
	afterBurst = r

	for w := range got {
		t.Logf("worker %d retains %d KiB after the burst, %d KiB after burst+steady, %d KiB after steady alone",
			w, peak[w]>>10, got[w]>>10, want[w]>>10)
		if peak[w] < 8*want[w] {
			t.Errorf("worker %d: the burst only grew the free lists to %d bytes (steady: %d): the test no longer exercises a burst", w, peak[w], want[w])
		}
		if got[w] > 2*want[w] {
			t.Errorf("worker %d retains %d bytes after burst+steady, more than twice the %d the steady phase retains alone", w, got[w], want[w])
		}
	}
	// The counters see what the free lists hold; the heap sees what anything
	// holds — a queue or scratch slice whose stale slots still point at a
	// burst's buffers keeps them just as alive. Both runs end with the same
	// keys in state, so their live heaps may differ by a fraction of the
	// burst at most.
	t.Logf("live heap %d KiB after burst+steady, %d KiB after steady alone", gotLive>>10, wantLive>>10)
	if extra := gotLive - wantLive; extra > sum(peak)/8 {
		t.Errorf("%d bytes more are live after burst+steady than after steady alone: something other than a free list still references the burst's %d bytes of buffers", extra, sum(peak))
	}
	records := float64(steady.epochs * steady.perEpoch * 2)
	if perRecord := float64(allocs) / records; perRecord > 0.02 {
		t.Errorf("steady phase after the burst allocates %.4f objects/record (budget 0.02): the free lists gave back buffers the steady state needs", perRecord)
	}
}

// TestApplyPathAllocsPerRecord pins the whole megaphone data path — input,
// F's routing, the exchange, S's staging and fold, the output batch, a sink —
// at the exchange path's budget, and the part of it that is per logical time
// rather than per record at zero: the same records split over four times as
// many epochs may cost only what the driver itself allocates per epoch (one
// input batch per worker).
func TestApplyPathAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful under -short")
	}
	run := func(p phase) float64 {
		r := startHashCount()
		r.drive(phase{epochs: 200, perEpoch: hashCountDomain / 200, paced: true}) // touch every key: no map growth below
		r.drive(p)
		before := mallocs()
		r.drive(p)
		allocs := mallocs() - before
		r.finish()
		return float64(allocs)
	}
	coarse := phase{epochs: 200, perEpoch: 256, paced: true}
	fine := phase{epochs: 800, perEpoch: 64, paced: true}
	records := float64(coarse.epochs * coarse.perEpoch * 2)

	a := run(coarse)
	if perRecord := a / records; perRecord > 0.02 {
		t.Errorf("F->S->output allocates %.4f objects/record (budget 0.02)", perRecord)
	}
	b := run(fine)
	perTime := (b - a) / float64((fine.epochs-coarse.epochs)*2)
	t.Logf("%.0f allocs over %d epochs, %.0f over %d: %.2f per worker per logical time", a, coarse.epochs, b, fine.epochs, perTime)
	if perTime > 1.5 {
		t.Errorf("a logical time costs %.2f allocations per worker; the driver's input batch accounts for 1 and processTime for none", perTime)
	}
}

// TestNotifyPathAllocsPerRecord pins the extended notificator's path at
// zero allocations per record: NotifyAt into a bin's pending heap and S's
// notification queue, and the replay that pops both. A run in which every
// record is scheduled and replayed once may allocate no more than the same
// run without scheduling.
func TestNotifyPathAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful under -short")
	}
	p := phase{epochs: 200, perEpoch: 256, paced: true}
	run := func(schedule bool) float64 {
		r := startCountRun(schedule)
		r.drive(phase{epochs: 200, perEpoch: hashCountDomain / 200, paced: true}) // touch every key: no map growth below
		r.drive(p)
		before := mallocs()
		r.drive(p)
		allocs := mallocs() - before
		r.finish()
		return float64(allocs)
	}
	plain, scheduled := run(false), run(true)
	records := float64(p.epochs * p.perEpoch * 2)
	perRecord := (scheduled - plain) / records
	t.Logf("%.0f allocs without scheduling, %.0f with every record scheduled and replayed: %.4f per scheduled record", plain, scheduled, perRecord)
	if perRecord > 0.02 {
		t.Errorf("scheduling and replaying a record allocates %.4f objects (budget 0.02)", perRecord)
	}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// settled waits until the free lists stop moving: every batch sent so far
// is either consumed or kept by an operator.
func (r *hashCountRun) settled() int64 {
	last, since := int64(-1), time.Now()
	for {
		cur := sum(r.exec.Retained().Envelopes)
		if cur != last {
			last, since = cur, time.Now()
		} else if time.Since(since) > 50*time.Millisecond {
			return cur
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPurgeReleasesKeptBatches: a crash barrier's purge must give every
// batch F and S kept back to the free lists. Batches are staged in both — at
// S by holding one data input's epoch back, at F by sending ahead of the
// control frontier — and the free lists' byte counters, which fell by what
// the operators hold, must be back at their quiescent level after the purge.
func TestPurgeReleasesKeptBatches(t *testing.T) {
	r := startHashCount()
	r.drive(phase{epochs: 50, perEpoch: 256, paced: true})
	base := r.settled()

	tS := core.Time(r.epoch + 1) // routable, but not complete: S keeps it
	tF := tS + 1                 // ahead of the control frontier: F keeps it
	for _, h := range r.ctls {
		h.AdvanceTo(tF)
	}
	for _, at := range []core.Time{tS, tF} {
		for _, in := range r.inputs {
			batch := make([]uint64, 256)
			for k := range batch {
				batch[k] = uint64(k)
			}
			in.SendBatchAt(at, batch)
		}
	}
	held := r.settled()
	if held >= base {
		t.Fatalf("free lists hold %d bytes with batches staged in F and S, %d when quiescent: nothing was kept", held, base)
	}

	r.exec.Pause()
	r.exec.PurgeDeferred(tS)
	after := sum(r.exec.Retained().Envelopes)
	var inv progress.Batch
	r.exec.HoldInventory(&inv)
	r.exec.ResetProgress(&inv)
	r.exec.Resume()
	t.Logf("free lists: %d bytes quiescent, %d with batches kept, %d after the purge", base, held, after)
	if after < base {
		t.Errorf("free lists hold %d bytes after the purge, %d when quiescent: the purge dropped kept batches instead of releasing them", after, base)
	}
	r.epoch = int(tF)
	r.finish()
}
