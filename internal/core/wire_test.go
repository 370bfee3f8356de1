package core

import (
	"reflect"
	"testing"

	"megaphone/internal/binenc"
)

// fbVal has no binary encoding, so a MapState holding it takes the gob
// fallback.
type fbVal struct{ N uint64 }

type (
	binaryBin   = BinState[KV[uint64, uint64], MapState[uint64, uint64]]
	fallbackBin = BinState[KV[uint64, uint64], MapState[uint64, fbVal]]
)

// stateRecords returns the wire records of a binary-format bin and of a
// gob-fallback bin with a pending record, as the state edge's codec would
// put them in a batch.
func stateRecords() (bin, fallback []byte) {
	b := mkBin(4, 40)
	fb := &fallbackBin{State: &MapState[uint64, fbVal]{M: map[uint64]fbVal{1: {7}, 2: {8}}}}
	fb.PushPending(12, KV[uint64, uint64]{Key: 3, Val: 9})
	m := binMsg[KV[uint64, uint64], MapState[uint64, uint64]]{Bin: 5, To: 1, State: b, codec: TransferBinary}
	f := binMsg[KV[uint64, uint64], MapState[uint64, fbVal]]{Bin: 300, To: 2, State: fb, codec: TransferBinary}
	return m.AppendBinaryRec(nil), f.AppendBinaryRec(nil)
}

// TestStateRecordRoundTrip: a migrating bin's wire record carries the bin
// number, the destination and the codec's payload in both formats, sits in
// a batch without consuming its neighbour, and decodes back to the bin.
func TestStateRecordRoundTrip(t *testing.T) {
	rec, fbRec := stateRecords()

	var m binMsg[KV[uint64, uint64], MapState[uint64, uint64]]
	rest, err := m.DecodeBinaryRec(append(append([]byte(nil), rec...), fbRec...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(fbRec) || m.Bin != 5 || m.To != 1 || m.State != nil || m.payload[0] != binFormatBinary {
		t.Fatalf("binary record decoded to bin %d, to %d, %d bytes left over, payload tag %#x", m.Bin, m.To, len(rest), m.payload[0])
	}
	got := &binaryBin{State: &MapState[uint64, uint64]{}}
	if err := TransferBinary.DecodeBin(got, m.payload); err != nil {
		t.Fatal(err)
	}
	if want := mkBin(4, 40); !reflect.DeepEqual(got, want) {
		t.Fatal("binary bin differs after the round trip")
	}

	var f binMsg[KV[uint64, uint64], MapState[uint64, fbVal]]
	if rest, err := f.DecodeBinaryRec(fbRec); err != nil || len(rest) != 0 || f.Bin != 300 || f.To != 2 || f.payload[0] != binFormatGob {
		t.Fatalf("fallback record: bin %d, to %d, %d bytes left over, err %v", f.Bin, f.To, len(rest), err)
	}
	gotFB := &fallbackBin{State: &MapState[uint64, fbVal]{}}
	if err := TransferBinary.DecodeBin(gotFB, f.payload); err != nil {
		t.Fatal(err)
	}
	if gotFB.State.M[2] != (fbVal{8}) || len(gotFB.Pending) != 1 {
		t.Fatalf("fallback bin differs after the round trip: %+v", gotFB)
	}
}

// FuzzStateRecordDecode: the state edge's record decoder parses network
// input, so any bytes either fail to decode or yield a payload no longer
// than the input; it never panics.
func FuzzStateRecordDecode(f *testing.F) {
	rec, fbRec := stateRecords()
	f.Add(rec)
	f.Add(fbRec)
	f.Add(rec[:len(rec)/2])
	f.Add(fbRec[:3])
	f.Add([]byte{})
	f.Add(binenc.AppendU32([]byte{1, 1}, 1<<31))                         // length far past the end
	f.Add(append(binenc.AppendU32([]byte{1, 1}, 5), binFormatBinary, 0)) // length just past the end
	f.Add([]byte{0xff, 0xff, 0xff})                                      // unterminated bin varint
	f.Fuzz(func(t *testing.T, data []byte) {
		var m binMsg[KV[uint64, uint64], MapState[uint64, uint64]]
		rest, err := m.DecodeBinaryRec(data)
		if err != nil {
			return
		}
		if len(m.payload)+len(rest) > len(data) {
			t.Fatalf("decoded a %d-byte payload and %d bytes of rest from %d bytes of input", len(m.payload), len(rest), len(data))
		}
		// S decodes what the record carried: that may fail, never panic.
		_ = TransferBinary.DecodeBin(&binaryBin{State: &MapState[uint64, uint64]{}}, m.payload)
	})
}
