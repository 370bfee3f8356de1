package keycount

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"megaphone/internal/core"
)

// binTag is the payload format tag of the BinaryState encoding; a keycount
// bin carrying any other tag fell back to gob.
const binTag = 0x01

// TestHashStateCodec: hash-count bins reconstruct identically in the binary
// format, from empty to paper-scale (domain 2^21 over 2^8 bins = 8192 keys
// per bin).
func TestHashStateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 100, 8192} {
		s := &HashState{M: make(map[uint64]uint64, size)}
		for i := 0; i < size; i++ {
			s.M[rng.Uint64()] = rng.Uint64() % 1000
		}
		bin := &core.BinState[uint64, HashState]{State: s}
		payload, err := core.TransferBinary.EncodeBin(bin, nil)
		if err != nil {
			t.Fatalf("size=%d: encode: %v", size, err)
		}
		if payload[0] != binTag {
			t.Fatalf("size=%d: hash-count bin fell back to gob (tag %#x)", size, payload[0])
		}
		got := &core.BinState[uint64, HashState]{State: &HashState{M: make(map[uint64]uint64)}}
		if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
			t.Fatalf("size=%d: decode: %v", size, err)
		}
		if !reflect.DeepEqual(got.State, bin.State) {
			t.Fatalf("size=%d: state mismatch", size)
		}
		if len(got.Pending) != 0 {
			t.Fatalf("size=%d: phantom pending records", size)
		}
	}
}

// TestArrayStateCodec: key-count dense bins reconstruct identically.
func TestArrayStateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{0, 1, 8192} {
		s := &ArrayState{Counts: make([]uint64, size)}
		for i := range s.Counts {
			s.Counts[i] = rng.Uint64() % 100
		}
		bin := &core.BinState[uint64, ArrayState]{State: s}
		payload, err := core.TransferBinary.EncodeBin(bin, nil)
		if err != nil {
			t.Fatalf("size=%d: encode: %v", size, err)
		}
		if payload[0] != binTag {
			t.Fatalf("size=%d: key-count bin fell back to gob (tag %#x)", size, payload[0])
		}
		got := &core.BinState[uint64, ArrayState]{State: &ArrayState{}}
		if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
			t.Fatalf("size=%d: decode: %v", size, err)
		}
		if size == 0 {
			if len(got.State.Counts) != 0 {
				t.Fatalf("empty array grew to %d", len(got.State.Counts))
			}
			continue
		}
		if !reflect.DeepEqual(got.State, bin.State) {
			t.Fatalf("size=%d: state mismatch", size)
		}
	}
}

// TestDecodeRejectsTrailingBytes: a binary-format payload must be consumed
// exactly — a mis-reassembled or corrupted payload that happens to parse
// must not install a bin silently.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	bin := &core.BinState[uint64, HashState]{State: &HashState{M: map[uint64]uint64{3: 1, 9: 4}}}
	payload, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := &core.BinState[uint64, HashState]{State: &HashState{}}
	if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
		t.Fatal(err)
	}
	err = core.TransferBinary.DecodeBin(got, append(payload, 0))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("payload with one trailing byte: err = %v", err)
	}
}

// fuzzDecodeBin is the property FuzzDecodeBin checks for one state type: a
// binary-format payload either fails to decode or decodes to a bin that
// re-encodes and decodes to itself. It must never panic, and never allocate
// from an unchecked count (a giant allocation fails the fuzzer's memory
// limit).
func fuzzDecodeBin[S any](t *testing.T, data []byte) {
	bin := &core.BinState[uint64, S]{State: new(S)}
	if err := core.TransferBinary.DecodeBin(bin, data); err != nil {
		return
	}
	again, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatalf("re-encoding a decoded bin: %v", err)
	}
	back := &core.BinState[uint64, S]{State: new(S)}
	if err := core.TransferBinary.DecodeBin(back, again); err != nil {
		t.Fatalf("decoding a re-encoded bin: %v", err)
	}
	if !reflect.DeepEqual(back, bin) {
		t.Fatalf("re-encode round trip changed the bin:\n got %+v\nwant %+v", back, bin)
	}
}

// FuzzDecodeBin feeds mutated binary-format payloads to the keycount state
// decoders (the fallback's decoder is the standard library's). Seeds: one
// valid payload per state type, and truncations of each.
func FuzzDecodeBin(f *testing.F) {
	hb := &core.BinState[uint64, HashState]{State: &HashState{M: map[uint64]uint64{1: 2, 1 << 60: 3, 77: 1 << 40}}}
	ab := &core.BinState[uint64, ArrayState]{State: &ArrayState{Counts: []uint64{0, 5, 1 << 33, 7}}}
	for _, bin := range []core.Migratable{hb, ab} {
		p, err := core.TransferBinary.EncodeBin(bin, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(p), len(p) - 1, len(p) / 2, 2, 1} {
			f.Add(p[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != binTag {
			return // the gob fallback is not under test
		}
		fuzzDecodeBin[HashState](t, data)
		fuzzDecodeBin[ArrayState](t, data)
	})
}
