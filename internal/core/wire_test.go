package core

import (
	"reflect"
	"testing"

	"megaphone/internal/binenc"
)

type (
	binaryBin = BinState[KV[uint64, uint64], MapState[uint64, uint64]]
	scalarBin = BinState[uint64, MapState[string, int64]]
)

// stateRecords returns the wire records of a bin and of a bin with scalar
// state and a scalar pending record, as the state edge's codec would put
// them in a batch.
func stateRecords() (bin, scalar []byte) {
	b := mkBin(4, 40)
	sb := &scalarBin{State: &MapState[string, int64]{M: map[string]int64{"a": 7, "b": -8}}}
	sb.PushPending(12, 9)
	m := binMsg[KV[uint64, uint64], MapState[uint64, uint64]]{Bin: 5, To: 1, State: b, codec: TransferBinary}
	s := binMsg[uint64, MapState[string, int64]]{Bin: 300, To: 2, State: sb, codec: TransferBinary}
	return m.AppendBinaryRec(nil), s.AppendBinaryRec(nil)
}

// TestStateRecordRoundTrip: a migrating bin's wire record carries the bin
// number, the destination and the codec's payload, sits in a batch without
// consuming its neighbour, and decodes back to the bin, pending scalar
// records included.
func TestStateRecordRoundTrip(t *testing.T) {
	rec, sRec := stateRecords()

	var m binMsg[KV[uint64, uint64], MapState[uint64, uint64]]
	rest, err := m.DecodeBinaryRec(append(append([]byte(nil), rec...), sRec...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(sRec) || m.Bin != 5 || m.To != 1 || m.State != nil || m.payload[0] != binFormatBinary {
		t.Fatalf("binary record decoded to bin %d, to %d, %d bytes left over, payload tag %#x", m.Bin, m.To, len(rest), m.payload[0])
	}
	got := &binaryBin{State: &MapState[uint64, uint64]{}}
	if err := TransferBinary.DecodeBin(got, m.payload); err != nil {
		t.Fatal(err)
	}
	if want := mkBin(4, 40); !reflect.DeepEqual(got, want) {
		t.Fatal("binary bin differs after the round trip")
	}

	var s binMsg[uint64, MapState[string, int64]]
	if rest, err := s.DecodeBinaryRec(sRec); err != nil || len(rest) != 0 || s.Bin != 300 || s.To != 2 || s.payload[0] != binFormatBinary {
		t.Fatalf("scalar record: bin %d, to %d, %d bytes left over, err %v", s.Bin, s.To, len(rest), err)
	}
	gotS := &scalarBin{State: &MapState[string, int64]{}}
	if err := TransferBinary.DecodeBin(gotS, s.payload); err != nil {
		t.Fatal(err)
	}
	if gotS.State.M["b"] != -8 || len(gotS.Pending) != 1 || gotS.Pending[0] != (TimedRec[uint64]{Time: 12, Rec: 9}) {
		t.Fatalf("scalar bin differs after the round trip: %+v", gotS)
	}
}

// FuzzStateRecordDecode: the state edge's record decoder parses network
// input, so any bytes either fail to decode or yield a payload no longer
// than the input; it never panics. A payload S decodes carries the binary
// format tag: the retired gob tag 0x00, like any other, is an error.
func FuzzStateRecordDecode(f *testing.F) {
	rec, sRec := stateRecords()
	f.Add(rec)
	f.Add(sRec)
	f.Add(rec[:len(rec)/2])
	f.Add(sRec[:3])
	f.Add([]byte{})
	f.Add(binenc.AppendU32([]byte{1, 1}, 1<<31))                         // length far past the end
	f.Add(append(binenc.AppendU32([]byte{1, 1}, 5), binFormatBinary, 0)) // length just past the end
	f.Add([]byte{0xff, 0xff, 0xff})                                      // unterminated bin varint
	f.Add(append(binenc.AppendU32([]byte{1, 1}, 3), 0x00, 0, 0))         // a gob-tagged bin
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
		err = TransferBinary.DecodeBin(&binaryBin{State: &MapState[uint64, uint64]{}}, m.payload)
		if err == nil && m.payload[0] != binFormatBinary {
			t.Fatalf("a payload tagged %#x decoded", m.payload[0])
		}
	})
}
