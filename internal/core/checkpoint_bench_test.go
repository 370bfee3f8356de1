package core

import (
	"fmt"
	"testing"
)

// benchCheckpointState builds a worker's worth of populated bins: 64 bins
// of 1k-entry maps (~1 MiB of binary payload), the shape a keycount worker
// drains per checkpoint.
func benchCheckpointState() (assignment []int, bins map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]) {
	const logBins = 6
	assignment = make([]int, 1<<logBins)
	bins = make(map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]])
	for b := range assignment {
		bins[b] = mkBin(uint64(b)*1e6, 1000)
	}
	return assignment, bins
}

// TestCheckpointAllocs pins one checkpoint of benchCheckpointState at 328
// allocations to write and 356 to read back through LoadCheckpointBins
// (235 and 256 measured): two more allocations per bin break either
// budget.
func TestCheckpointAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		bench  func(*testing.B)
		budget int64
	}{{"write", BenchmarkCheckpointWrite, 328}, {"restore", BenchmarkCheckpointRestore, 356}} {
		if r := testing.Benchmark(c.bench); r.N == 0 || r.AllocsPerOp() > c.budget {
			t.Errorf("checkpoint %s: %d allocs/op over %d ops, budget %d", c.name, r.AllocsPerOp(), r.N, c.budget)
		}
	}
}

// BenchmarkCheckpointWrite measures one worker draining its bins to disk —
// the synchronous cost a checkpoint command adds to the epoch it aligns
// with (the "checkpoint stall" of the recovery ablation).
func BenchmarkCheckpointWrite(b *testing.B) {
	assignment, bins := benchCheckpointState()
	dir := b.TempDir()
	var payload []byte
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewCheckpointWriter(dir, "bench-op", Time(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		for bin := 0; bin < len(assignment); bin++ {
			payload, err = TransferBinary.EncodeBin(bins[bin], payload[:0])
			if err != nil {
				b.Fatal(err)
			}
			if err := w.WriteBin(bin, payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Finish(1, 6, TransferBinary.Name(), assignment, nil); err != nil {
			b.Fatal(err)
		}
		bytes = w.Bytes()
	}
	b.SetBytes(bytes)
}

// BenchmarkCheckpointRestore measures loading and digest-verifying one
// worker's checkpoint — the disk half of recovery latency (the other half
// is replaying input since the checkpoint epoch).
func BenchmarkCheckpointRestore(b *testing.B) {
	assignment, bins := benchCheckpointState()
	dir := b.TempDir()
	w, err := NewCheckpointWriter(dir, "bench-op", 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	var payload []byte
	for bin := 0; bin < len(assignment); bin++ {
		payload, err = TransferBinary.EncodeBin(bins[bin], payload[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteBin(bin, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Finish(1, 6, TransferBinary.Name(), assignment, nil); err != nil {
		b.Fatal(err)
	}
	all := make([]int, len(assignment))
	for bin := range all {
		all[bin] = bin
	}
	b.SetBytes(w.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := LoadCheckpointBins(dir, "bench-op", 1, 1, all, TransferBinary.Name())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Bins) != len(assignment) {
			b.Fatal(fmt.Errorf("restored %d bins, want %d", len(r.Bins), len(assignment)))
		}
	}
}
