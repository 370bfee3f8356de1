package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
)

// tagBinary is the first byte of every bin payload.
const tagBinary = 0x01

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
			t.Fatalf("size=%d: payload format %#x", size, tag)
		}
		if !reflect.DeepEqual(got.State, bin.State) {
			t.Fatalf("size=%d: state mismatch", size)
		}
	}
}

// TestPendingHeapOrderPreserved: pending post-dated KV records keep their
// heap order through the binary format, so notifications fire in time order
// on the new owner. TestEitherBinaryRec is the Either twin.
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
	if tag != tagBinary {
		t.Fatalf("payload format %#x", tag)
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
// non-implementing sides reports incapable.
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
		t.Fatalf("capable Either bin: payload format %#x", payload[0])
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
