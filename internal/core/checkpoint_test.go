package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
func writeTestCheckpoint(t testing.TB, dir string, epoch Time, worker, peers, logBins int,
	assignment []int, binStates map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]) {
	t.Helper()
	writeLiveCheckpoint(t, dir, epoch, worker, peers, logBins, assignment, nil, binStates)
}

// writeLiveCheckpoint is writeTestCheckpoint with an explicit live roster
// recorded in the manifest (a shrunk-roster checkpoint).
func writeLiveCheckpoint(t testing.TB, dir string, epoch Time, worker, peers, logBins int,
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
// record per bin, come back bit-identical through LoadCheckpointBins, with
// their pending records, and the recorded assignment survives.
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

	// Each worker's bins come back from its own file, all but the never
	// written bin 3.
	for w, want := range [][]int{{1}, {0, 2}} {
		var owned []int
		for b, owner := range assignment {
			if owner == w {
				owned = append(owned, b)
			}
		}
		r, err := LoadCheckpointBins(dir, "test-op", 5, peers, owned, TransferBinary.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Assignment, assignment) || r.LogBins != logBins {
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
// roster is complete without the dead slot's manifest, the loader reads its
// assignment and bins even though worker 0 is the dead one, and an epoch
// missing a live worker's manifest is incomplete to the loader too.
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

	// The assignment alone: no manifest-w0, no bins, no error.
	r, err := LoadCheckpointBins(dir, "test-op", 30, peers, nil, TransferBinary.Name())
	if err != nil {
		t.Fatalf("assignment of a shrunk-roster checkpoint errored: %v", err)
	}
	if len(r.Bins) != 0 || !reflect.DeepEqual(r.Assignment, assignment) {
		t.Fatalf("assignment read: bins=%d assignment=%v", len(r.Bins), r.Assignment)
	}

	// The survivor's file holds every bin; the load must not insist on
	// manifest-w0.
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
	if _, err := LoadCheckpointBins(dir, "test-op", 40, peers, []int{0, 1}, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("load of an epoch missing a live worker's manifest: %v, want an incomplete-checkpoint error", err)
	}
}

// TestLoadRestoreDetectsCorruption: LoadCheckpointBins fails the digest
// check on flipped payload bytes and the completeness check on a truncated
// data file, refuses a record length beyond the file, a data file of the
// older split-record layout as bad magic, a codec mismatch, and a bin in the
// retired gob format by name.
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
	if _, err := LoadCheckpointBins(dir, "test-op", 7, 1, []int{0, 1}, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corrupted payload not detected: %v", err)
	}

	if err := os.WriteFile(path, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointBins(dir, "test-op", 7, 1, []int{0, 1}, TransferBinary.Name()); err == nil {
		t.Fatal("truncated data file not detected")
	}

	// A record length near 2^64 is corrupt input, not a slice bound to
	// trust.
	huge := binenc.AppendUvarint(binenc.AppendUvarint([]byte(ckptMagic), 0), ^uint64(0))
	if err := os.WriteFile(path, append(huge, make([]byte, 16)...), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointBins(dir, "test-op", 7, 1, []int{0, 1}, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("record length beyond the file not detected: %v", err)
	}

	old := append([]byte("MPCK1\n"), data[len(ckptMagic):]...)
	if err := os.WriteFile(path, old, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointBins(dir, "test-op", 7, 1, []int{0, 1}, TransferBinary.Name()); err == nil ||
		!strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("split-record layout not refused as bad magic: %v", err)
	}

	// Codec mismatch is a configuration error, reported as such.
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointBins(dir, "test-op", 7, 1, []int{0, 1}, "gob"); err == nil ||
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
	_, err = LoadCheckpointBins(dir, "test-op", 8, 1, []int{1}, TransferBinary.Name())
	if err == nil || !strings.Contains(err.Error(), `"test-op"`) || !strings.Contains(err.Error(), "bin 1") ||
		!strings.Contains(err.Error(), "gob") {
		t.Fatalf("gob-format bin not refused by name: %v", err)
	}
}

// FuzzCheckpointLoad mutates worker 0's data file and manifest of a small
// two-worker checkpoint: LoadCheckpointBins returns an error or bins whose
// payloads match the digests their owners' manifests list, and never
// panics.
func FuzzCheckpointLoad(f *testing.F) {
	const peers, logBins = 2, 2
	assignment := []int{0, 1, 0, 1}
	bins := map[int]*BinState[KV[uint64, uint64], MapState[uint64, uint64]]{
		0: mkBin(1, 3),
		1: mkBin(2, 5),
		2: mkBin(3, 2),
	}
	bins[0].PushPending(9, KV[uint64, uint64]{Key: 7, Val: 7})
	src := f.TempDir()
	for w := 0; w < peers; w++ {
		writeTestCheckpoint(f, src, 5, w, peers, logBins, assignment, bins)
	}
	// A worker 0 whose one bin is tagged as the retired gob format, with a
	// digest to match.
	gob := f.TempDir()
	w, err := NewCheckpointWriter(gob, "test-op", 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteBin(0, append([]byte{0x00}, make([]byte, 16)...)); err != nil {
		f.Fatal(err)
	}
	if err := w.Finish(peers, logBins, TransferBinary.Name(), assignment, nil); err != nil {
		f.Fatal(err)
	}
	read := func(dir, name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, "test-op", "epoch-5", name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	data0, man0 := read(src, "bins-w0.dat"), read(src, "manifest-w0.json")
	data1, man1 := read(src, "bins-w1.dat"), read(src, "manifest-w1.json")
	f.Add(data0, man0)
	f.Add(data0[:len(data0)/2], man0)
	f.Add(data0[:len(ckptMagic)+1], man0)
	f.Add(data0, man0[:len(man0)/2])
	f.Add(append([]byte("MPCK1\n"), data0[len(ckptMagic):]...), man0)
	f.Add(read(gob, "bins-w0.dat"), read(gob, "manifest-w0.json"))
	all := []int{0, 1, 2, 3}
	if r, err := LoadCheckpointBins(src, "test-op", 5, peers, all, TransferBinary.Name()); err != nil || len(r.Bins) != len(bins) {
		f.Fatalf("the unmutated checkpoint loads %v, err %v", r, err)
	}
	f.Fuzz(func(t *testing.T, data, manifest []byte) {
		dir := t.TempDir()
		ed := filepath.Join(dir, "test-op", "epoch-5")
		if err := os.MkdirAll(ed, 0o777); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{"bins-w0.dat": data, "manifest-w0.json": manifest, "bins-w1.dat": data1, "manifest-w1.json": man1} {
			if err := os.WriteFile(filepath.Join(ed, name), b, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		r, err := LoadCheckpointBins(dir, "test-op", 5, peers, all, TransferBinary.Name())
		if err != nil {
			return
		}
		manifests := [][]byte{manifest, man1}
		for b, payload := range r.Bins {
			var m Manifest
			if err := json.Unmarshal(manifests[r.Assignment[b]], &m); err != nil {
				t.Fatalf("bin %d loaded from worker %d, whose manifest does not parse: %v", b, r.Assignment[b], err)
			}
			listed := false
			for _, bm := range m.Bins {
				if bm.Bin == b {
					listed = true
					if d := strconv.FormatUint(payloadDigest(payload), 16); d != bm.Digest {
						t.Fatalf("bin %d loaded with digest %s, its manifest lists %s", b, d, bm.Digest)
					}
				}
			}
			if !listed {
				t.Fatalf("bin %d loaded, but worker %d's manifest does not list it", b, r.Assignment[b])
			}
			if payload[0] != binFormatBinary {
				t.Fatalf("bin %d loaded with format tag %#x", b, payload[0])
			}
		}
	})
}
