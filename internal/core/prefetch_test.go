package core_test

import (
	"reflect"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// probeCall is one call S made on a probeState's operator: a state created
// (NewState), a record prefetched, or a record folded.
type probeCall struct {
	kind byte // 'n', 'p' or 'f'
	rec  uint64
}

// probeState counts keys like hash-count and logs every call into one log
// shared by all bins of the run.
type probeState struct {
	log    *[]probeCall
	counts map[uint64]uint64
}

// probeBin places key k in bin k mod 4 of a 4-bin operator.
func probeBin(k uint64) int { return int(k & 3) }

// runProbe drives one worker's probe operator, one batch per epoch, with
// bins 0-2 present from the start and bin 3 absent until a record creates
// it. It returns the calls S made and the outputs, in order.
func runProbe(epochs [][]uint64, prefetch bool) ([]probeCall, []countOut) {
	var log []probeCall
	var outs []countOut
	ops := core.Ops[uint64, probeState, countOut]{
		Hash: func(k uint64) uint64 { return k << 62 },
		NewState: func() *probeState {
			log = append(log, probeCall{kind: 'n'})
			return &probeState{log: &log, counts: map[uint64]uint64{}}
		},
		Fold: func(_ core.Time, k uint64, s *probeState, _ *core.Notificator[uint64, probeState, countOut], emit func(countOut)) {
			*s.log = append(*s.log, probeCall{'f', k})
			s.counts[k]++
			emit(countOut{Key: k, Count: s.counts[k]})
		},
	}
	if prefetch {
		ops.Prefetch = func(k uint64, s *probeState) { *s.log = append(*s.log, probeCall{'p', k}) }
	}
	h := &core.Handle[uint64, probeState, countOut]{}
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1})
	var in *dataflow.InputHandle[uint64]
	var ctl *dataflow.InputHandle[core.Move]
	exec.Build(func(w *dataflow.Worker) {
		var ctlStream dataflow.Stream[core.Move]
		var data dataflow.Stream[uint64]
		ctl, ctlStream = dataflow.NewInput[core.Move](w, "control")
		in, data = dataflow.NewInput[uint64](w, "data")
		out := core.Operator(w, core.Config{Name: "probe", LogBins: 2}, ctlStream, data, ops, h)
		operators.Sink(w, "sink", out, func(_ core.Time, data []countOut) { outs = append(outs, data...) })
	})
	for bin := 0; bin < 3; bin++ {
		h.Preload(0, bin, func(*probeState) {})
	}
	log = nil
	exec.Start()
	for e, keys := range epochs {
		in.SendBatchAt(core.Time(e), append([]uint64(nil), keys...))
	}
	ctl.Close()
	in.Close()
	exec.Wait()
	return log, outs
}

// wantProbe is the call sequence S owes runProbe's epochs: with prefetch,
// each chunk of core.PrefetchChunk records prefetches its present records
// in order and then folds the chunk; without, each record is folded in
// turn. Either way an absent bin is created just before its first fold.
func wantProbe(epochs [][]uint64, prefetch bool) []probeCall {
	present := [4]bool{true, true, true, false}
	var want []probeCall
	fold := func(recs []uint64) {
		for _, k := range recs {
			if !present[probeBin(k)] {
				present[probeBin(k)] = true
				want = append(want, probeCall{kind: 'n'})
			}
			want = append(want, probeCall{'f', k})
		}
	}
	for _, keys := range epochs {
		if !prefetch {
			fold(keys)
			continue
		}
		for len(keys) > 0 {
			chunk := keys[:min(len(keys), core.PrefetchChunk)]
			keys = keys[len(chunk):]
			for _, k := range chunk {
				if present[probeBin(k)] {
					want = append(want, probeCall{'p', k})
				}
			}
			fold(chunk)
		}
	}
	return want
}

// TestPrefetchThenFold pins S's two-pass apply loop: every present record of
// a chunk is prefetched before any record of the chunk is folded, a batch
// longer than core.PrefetchChunk is split into chunks, an absent bin is not
// prefetched and is still created by the fold, an operator without Prefetch
// sees exactly the one-pass call sequence, and the outputs do not depend on
// Prefetch.
func TestPrefetchThenFold(t *testing.T) {
	long := make([]uint64, 2*core.PrefetchChunk+7) // bins 0-2: all present
	for i := range long {
		long[i] = uint64(4*i + i%3)
	}
	epochs := [][]uint64{
		long,
		{3, 4, 7, 8, 11, 1},  // bin 3 is absent: its first fold creates it
		{15, 2, 19, 5, 3, 6}, // bin 3 is present now
	}

	got, withOut := runProbe(epochs, true)
	if want := wantProbe(epochs, true); !reflect.DeepEqual(got, want) {
		t.Fatalf("with Prefetch, S made the calls\n%v\nwant\n%v", got, want)
	}
	var runs []int // lengths of the runs of prefetches in the first epoch
	for i, c := range got[:2*len(long)] {
		if c.kind == 'p' && (i == 0 || got[i-1].kind != 'p') {
			runs = append(runs, 0)
		}
		if c.kind == 'p' {
			runs[len(runs)-1]++
		}
	}
	if want := []int{core.PrefetchChunk, core.PrefetchChunk, 7}; !reflect.DeepEqual(runs, want) {
		t.Errorf("a %d-record batch was prefetched in runs of %v, want %v", len(long), runs, want)
	}
	bin3 := 0
	for _, c := range got {
		if c.kind == 'p' && probeBin(c.rec) == 3 {
			bin3++
		}
	}
	if bin3 != 3 {
		t.Errorf("%d records of bin 3 were prefetched, want the 3 of the last epoch, after a fold created the bin", bin3)
	}

	plain, plainOut := runProbe(epochs, false)
	if want := wantProbe(epochs, false); !reflect.DeepEqual(plain, want) {
		t.Errorf("without Prefetch, S made the calls\n%v\nwant\n%v", plain, want)
	}
	if !reflect.DeepEqual(withOut, plainOut) {
		t.Errorf("outputs differ with Prefetch:\n%v\nwithout:\n%v", withOut, plainOut)
	}
}
