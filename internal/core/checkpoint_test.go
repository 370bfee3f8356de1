package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"megaphone/internal/binenc"
)

// mkBin builds a MapState bin with n entries keyed off seed.
func mkBin(seed uint64, n int) *BinState[KV[uint64, uint64], MapState[uint64, uint64]] {
	b := &BinState[KV[uint64, uint64], MapState[uint64, uint64]]{
		State: &MapState[uint64, uint64]{M: make(map[uint64]uint64)},
	}
	for i := 0; i < n; i++ {
		k := Mix64(seed + uint64(i))
		b.State.M[k] = k % 977
	}
	return b
}

// writeTestCheckpoint drains bins (bin id -> state) for one worker at the
// given epoch and commits the manifest.
func writeTestCheckpoint(t *testing.T, dir string, epoch Time, worker, peers, logBins int,
	assignment []int, binStates map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]) {
	t.Helper()
	writeLiveCheckpoint(t, dir, epoch, worker, peers, logBins, assignment, nil, binStates)
}

// writeLiveCheckpoint is writeTestCheckpoint with an explicit live roster
// recorded in the manifest (a shrunk-roster checkpoint).
func writeLiveCheckpoint(t *testing.T, dir string, epoch Time, worker, peers, logBins int,
	assignment, live []int, binStates map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]) {
	t.Helper()
	w, err := NewCheckpointWriter(dir, "test-op", epoch, worker)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 1<<uint(logBins); b++ {
		bs, ok := binStates[b]
		if !ok || assignment[b] != worker {
			continue
		}
		payload, err := TransferBinary.EncodeBin(bs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBin(b, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(peers, logBins, TransferBinary.Name(), assignment, live); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTrip: bins written through the checkpoint writer, one
// record per bin, come back bit-identical through LoadRestore, and the
// recorded assignment survives.
func TestCheckpointRoundTrip(t *testing.T) {
	t.Run("record-per-bin", testCheckpointRoundTrip)
}

func testCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const peers, logBins = 2, 2
	assignment := []int{1, 0, 1, 1} // bins 0,2,3 on worker 1; bin 1 on worker 0
	bins := map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]{
		0: mkBin(1, 3),
		1: mkBin(2, 500),
		2: mkBin(3, 0), // occupied but empty map
	}
	// Pending records must survive too (they migrate with the bin).
	bins[0].PushPending(9, KV[uint64, uint64]{Key: 7, Val: 7})
	for w := 0; w < peers; w++ {
		writeTestCheckpoint(t, dir, 5, w, peers, logBins, assignment, bins)
	}

	epoch, ops, ok, err := LatestCheckpoint(dir, peers)
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	if epoch != 5 || len(ops) != 1 || ops[0] != "test-op" {
		t.Fatalf("LatestCheckpoint = (%d, %v)", epoch, ops)
	}

	// Each worker's process view holds exactly the bins it owned.
	for w, want := range [][]int{{1}, {0, 2}} {
		r, err := LoadRestore(dir, "test-op", 5, peers, w, 1, TransferBinary.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Assignment, assignment) || r.LogBins != logBins || r.Epoch != 5 {
			t.Fatalf("restore metadata mismatch: %+v", r)
		}
		if len(r.Bins) != len(want) {
			t.Fatalf("worker %d restored %d bins, want %v (bin 3 was never written, the rest belong elsewhere)", w, len(r.Bins), want)
		}
		for _, b := range want {
			payload, ok := r.Bins[b]
			if !ok {
				t.Fatalf("bin %d missing from worker %d's restore", b, w)
			}
			got := &BinState[KV[uint64, uint64], MapState[uint64, uint64]]{
				State: &MapState[uint64, uint64]{},
			}
			if err := TransferBinary.DecodeBin(got, payload); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.State, bins[b].State) || !reflect.DeepEqual(got.Pending, bins[b].Pending) {
				t.Fatalf("bin %d state mismatch after restore", b)
			}
		}
	}
}

// TestLatestCheckpointSkipsIncomplete: an epoch missing any worker's
// manifest (e.g. the process died mid-checkpoint) is not recoverable; the
// newest complete epoch wins.
func TestLatestCheckpointSkipsIncomplete(t *testing.T) {
	dir := t.TempDir()
	assignment := []int{0, 1}
	bins := map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]{0: mkBin(1, 4), 1: mkBin(2, 4)}
	for w := 0; w < 2; w++ {
		writeTestCheckpoint(t, dir, 10, w, 2, 1, assignment, bins)
	}
	// Epoch 20: only worker 0 committed before the "crash".
	writeTestCheckpoint(t, dir, 20, 0, 2, 1, assignment, bins)

	epoch, _, ok, err := LatestCheckpoint(dir, 2)
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	if epoch != 10 {
		t.Fatalf("LatestCheckpoint picked epoch %d, want the complete 10", epoch)
	}

	// An empty or absent dir is not an error, just no checkpoint.
	if _, _, ok, err := LatestCheckpoint(filepath.Join(dir, "nope"), 2); ok || err != nil {
		t.Fatalf("absent dir: ok=%v err=%v", ok, err)
	}
}

// TestShrunkRosterCheckpoint: an epoch whose manifests record a shrunk live
// roster is complete without the dead slot's manifest, restores for the dead
// slot's worker range come back empty instead of erroring, and the
// bin-targeted loader works even when worker 0 is the dead one.
func TestShrunkRosterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const peers, logBins = 2, 1
	// Worker 0 crashed earlier; its bins were restored onto worker 1.
	assignment := []int{1, 1}
	live := []int{1}
	bins := map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]{0: mkBin(1, 8), 1: mkBin(2, 8)}
	writeLiveCheckpoint(t, dir, 30, 1, peers, logBins, assignment, live, bins)

	epoch, _, ok, err := LatestCheckpoint(dir, peers)
	if err != nil || !ok || epoch != 30 {
		t.Fatalf("shrunk-roster epoch not complete: epoch=%d ok=%v err=%v", epoch, ok, err)
	}

	// The dead slot's worker range: no manifest, no bins, no error.
	r, err := LoadRestore(dir, "test-op", 30, peers, 0, 1, TransferBinary.Name())
	if err != nil {
		t.Fatalf("restore of a checkpoint-dead slot errored: %v", err)
	}
	if len(r.Bins) != 0 || !reflect.DeepEqual(r.Assignment, assignment) {
		t.Fatalf("dead-slot restore: bins=%d assignment=%v", len(r.Bins), r.Assignment)
	}

	// The survivor's range holds everything.
	r, err = LoadRestore(dir, "test-op", 30, peers, 1, 1, TransferBinary.Name())
	if err != nil || len(r.Bins) != 2 {
		t.Fatalf("survivor restore: bins=%d err=%v", len(r.Bins), err)
	}

	// Targeted bin load must not insist on manifest-w0.
	r, err = LoadCheckpointBins(dir, "test-op", 30, peers, []int{0, 1}, TransferBinary.Name())
	if err != nil || len(r.Bins) != 2 {
		t.Fatalf("LoadCheckpointBins without worker 0: bins=%d err=%v", len(r.Bins), err)
	}

	// A manifest missing for a worker the epoch records as LIVE still marks
	// the epoch incomplete.
	writeLiveCheckpoint(t, dir, 40, 1, peers, logBins, assignment, []int{0, 1}, bins)
	if epoch, _, ok, err := LatestCheckpoint(dir, peers); err != nil || !ok || epoch != 30 {
		t.Fatalf("incomplete live epoch not skipped: epoch=%d ok=%v err=%v", epoch, ok, err)
	}
	if _, err := LoadRestore(dir, "test-op", 40, peers, 0, 1, TransferBinary.Name()); err == nil {
		t.Fatal("restore of a live worker with a missing manifest did not error")
	}
}

// TestLoadRestoreDetectsCorruption: flipped payload bytes fail the digest
// check, a truncated data file fails the completeness check, a data file of
// the older split-record layout is refused as bad magic, and a bin in the
// retired gob format is refused by name.
func TestLoadRestoreDetectsCorruption(t *testing.T) {
	t.Run("record-per-bin", testLoadRestoreDetectsCorruption)
}

func testLoadRestoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	assignment := []int{0, 0}
	bins := map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]{0: mkBin(1, 300), 1: mkBin(2, 300)}
	writeTestCheckpoint(t, dir, 7, 0, 1, 1, assignment, bins)

	path := filepath.Join(dir, "test-op", "epoch-7", "bins-w0.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRestore(dir, "test-op", 7, 1, 0, 1, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corrupted payload not detected: %v", err)
	}

	if err := os.WriteFile(path, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRestore(dir, "test-op", 7, 1, 0, 1, TransferBinary.Name()); err == nil {
		t.Fatal("truncated data file not detected")
	}

	// A record length near 2^64 is corrupt input, not a slice bound to
	// trust.
	huge := binenc.AppendUvarint(binenc.AppendUvarint([]byte(ckptMagic), 0), ^uint64(0))
	if err := os.WriteFile(path, append(huge, make([]byte, 16)...), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRestore(dir, "test-op", 7, 1, 0, 1, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("record length beyond the file not detected: %v", err)
	}

	old := append([]byte("MPCK1\n"), data[len(ckptMagic):]...)
	if err := os.WriteFile(path, old, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRestore(dir, "test-op", 7, 1, 0, 1, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("split-record layout not refused as bad magic: %v", err)
	}

	// Codec mismatch is a configuration error, reported as such.
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRestore(dir, "test-op", 7, 1, 0, 1, "gob"); err == nil ||
		!strings.Contains(err.Error(), "codec") {
		t.Fatalf("codec mismatch not detected: %v", err)
	}

	// Earlier builds wrote some bins in gob, tagged 0x00, under the same
	// codec name; loading one is an error naming the operator and the bin,
	// never a decode that panics the worker.
	w, err := NewCheckpointWriter(dir, "test-op", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBin(1, append([]byte{0x00}, make([]byte, 300)...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(1, 1, TransferBinary.Name(), assignment, nil); err != nil {
		t.Fatal(err)
	}
	_, err = LoadRestore(dir, "test-op", 8, 1, 0, 1, TransferBinary.Name())
	_, err2 := LoadCheckpointBins(dir, "test-op", 8, 1, []int{1}, TransferBinary.Name())
	for _, err := range []error{err, err2} {
		if err == nil || !strings.Contains(err.Error(), `"test-op"`) || !strings.Contains(err.Error(), "bin 1") ||
			!strings.Contains(err.Error(), "gob") {
			t.Fatalf("gob-format bin not refused by name: %v", err)
		}
	}
}
