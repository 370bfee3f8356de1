package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
)

// Payload format tags (the first byte of every bin payload).
const (
	tagGob    = 0x00
	tagBinary = 0x01
)

// roundTrip encodes bin and decodes it into a fresh bin whose state was
// produced by newState, returning the payload's format tag and the
// reconstruction.
func roundTrip[R, S any](t *testing.T, bin *core.BinState[R, S], newState func() *S) (byte, *core.BinState[R, S]) {
	t.Helper()
	payload, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := &core.BinState[R, S]{State: newState()}
	if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return payload[0], got
}

// tally is a per-key count the binary format has no encoding for (neither a
// scalar nor a BinaryRec), so bins of MapState[uint64, tally] ship through
// the gob fallback.
type tally struct{ N int64 }

// TestMapStateRoundTrip: random MapState bins reconstruct identical state in
// the binary format, including empty and large maps.
func TestMapStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 17, 5000}
	for _, size := range sizes {
		bin := &core.BinState[core.KV[uint64, int64], core.MapState[uint64, int64]]{
			State: &core.MapState[uint64, int64]{M: make(map[uint64]int64)},
		}
		for i := 0; i < size; i++ {
			bin.State.M[rng.Uint64()] = rng.Int63() - rng.Int63()
		}
		tag, got := roundTrip(t, bin, func() *core.MapState[uint64, int64] {
			return &core.MapState[uint64, int64]{M: make(map[uint64]int64)}
		})
		if tag != tagBinary {
			t.Fatalf("size=%d: capable MapState bin fell back (tag %#x)", size, tag)
		}
		if !reflect.DeepEqual(got.State, bin.State) {
			t.Fatalf("size=%d: state mismatch", size)
		}
	}
}

// TestFallbackChosenFromType: a state type with no BinaryState
// implementation, and a MapState instantiation that reports incapable, must
// round-trip through the per-bin gob fallback, transparently.
func TestFallbackChosenFromType(t *testing.T) {
	type opaque struct{ X, Y int }
	ob := &core.BinState[uint64, opaque]{State: &opaque{X: 7, Y: -9}}
	tag, got := roundTrip(t, ob, func() *opaque { return new(opaque) })
	if tag != tagGob {
		t.Fatalf("opaque state did not fall back (tag %#x)", tag)
	}
	if *got.State != (opaque{X: 7, Y: -9}) {
		t.Fatalf("fallback round-trip: %+v", got.State)
	}

	mb := &core.BinState[core.KV[uint64, int64], core.MapState[uint64, tally]]{
		State: &core.MapState[uint64, tally]{M: map[uint64]tally{3: {N: 4}}},
	}
	tag, gotM := roundTrip(t, mb, func() *core.MapState[uint64, tally] { return new(core.MapState[uint64, tally]) })
	if tag != tagGob || !reflect.DeepEqual(gotM.State, mb.State) {
		t.Fatalf("incapable MapState: tag %#x, state %+v", tag, gotM.State)
	}
}

// TestPendingHeapOrderPreserved: pending post-dated records keep their heap
// order through the fallback (KV is no BinaryRec, so pending records force
// it even under a capable state), so notifications fire in time order on the
// new owner. TestEitherBinaryRec is the binary-format twin.
func TestPendingHeapOrderPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bin := &core.BinState[core.KV[uint64, int64], core.MapState[uint64, int64]]{
		State: &core.MapState[uint64, int64]{M: map[uint64]int64{}},
	}
	for i := 0; i < 300; i++ {
		tm := core.Time(rng.Intn(40))
		bin.PushPending(tm, core.KV[uint64, int64]{Key: uint64(i), Val: int64(i)})
	}
	tag, got := roundTrip(t, bin, func() *core.MapState[uint64, int64] {
		return &core.MapState[uint64, int64]{M: map[uint64]int64{}}
	})
	if tag != tagGob {
		t.Fatalf("pending records without BinaryRec did not fall back (tag %#x)", tag)
	}
	if !reflect.DeepEqual(got.Pending, bin.Pending) {
		t.Fatal("pending layout changed")
	}
}

// testRec is a record type with a hand-rolled binary encoding, standing in
// for a workload event type.
type testRec struct {
	A uint64
	S string
}

func (r *testRec) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, r.A)
	return binenc.AppendString(buf, r.S)
}

func (r *testRec) DecodeBinaryRec(data []byte) ([]byte, error) {
	var err error
	if r.A, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	r.S, data, err = binenc.String(data)
	return data, err
}

// TestEitherBinaryRec: Either pending records round-trip through the
// binary codec when both sides implement BinaryRec, and Either over
// non-implementing sides reports incapable (forcing the gob fallback).
func TestEitherBinaryRec(t *testing.T) {
	var incapable core.Either[uint64, uint64]
	if incapable.BinaryCapable() {
		t.Fatal("Either over non-BinaryRec sides claims capability")
	}

	bin := &core.BinState[core.Either[testRec, testRec], core.MapState[uint64, int64]]{
		State: &core.MapState[uint64, int64]{M: map[uint64]int64{5: -1}},
	}
	bin.PushPending(4, core.Left[testRec, testRec](testRec{A: 1, S: "left"}))
	bin.PushPending(2, core.Right[testRec, testRec](testRec{A: 2, S: "right"}))
	payload, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != 0x01 {
		t.Fatalf("capable Either bin fell back to gob (tag %#x)", payload[0])
	}
	got := &core.BinState[core.Either[testRec, testRec], core.MapState[uint64, int64]]{
		State: &core.MapState[uint64, int64]{M: map[uint64]int64{}},
	}
	if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pending, bin.Pending) || !reflect.DeepEqual(got.State, bin.State) {
		t.Fatalf("Either round-trip mismatch:\n got %+v\nwant %+v", got, bin)
	}
}

// TestCodecByName: the one codec resolves by the name checkpoint manifests
// record; the names of the deleted codecs, like any other, are errors.
func TestCodecByName(t *testing.T) {
	c, err := core.CodecByName("binary")
	if err != nil || c != core.TransferBinary || c.Name() != "binary" {
		t.Fatalf("CodecByName(binary) = %v, %v", c, err)
	}
	for _, name := range []string{"gob", "direct", "zstd", ""} {
		if _, err := core.CodecByName(name); err == nil {
			t.Fatalf("CodecByName(%q) resolved", name)
		}
	}
}
