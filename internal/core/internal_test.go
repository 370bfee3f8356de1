package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"megaphone/internal/binenc"
)

// TestBinOf checks the top-bits binning of Section 4.2.
func TestBinOf(t *testing.T) {
	if got := BinOf(0xffffffffffffffff, 4); got != 15 {
		t.Errorf("BinOf(max, 4) = %d, want 15", got)
	}
	if got := BinOf(0, 4); got != 0 {
		t.Errorf("BinOf(0, 4) = %d, want 0", got)
	}
	if got := BinOf(0x8000000000000000, 1); got != 1 {
		t.Errorf("BinOf(msb, 1) = %d, want 1", got)
	}
	if got := BinOf(12345, 0); got != 0 {
		t.Errorf("BinOf(x, 0) = %d, want 0", got)
	}
	// Property: bin always within range.
	prop := func(h uint64, lb uint8) bool {
		l := int(lb % 20)
		b := BinOf(h, l)
		return b >= 0 && b < 1<<uint(l)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMix64Distributes: sequential keys spread across bins roughly evenly.
func TestMix64Distributes(t *testing.T) {
	const logBins = 4
	counts := make([]int, 1<<logBins)
	const n = 1 << 14
	for k := uint64(0); k < n; k++ {
		counts[BinOf(Mix64(k), logBins)]++
	}
	want := n / (1 << logBins)
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bin %d has %d keys, want ~%d", b, c, want)
		}
	}
}

// TestBinStatePendingHeap: pushPending/popPendingAt maintain time order.
func TestBinStatePendingHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := &BinState[int, int]{State: new(int)}
	byTime := map[Time][]int{}
	for i := 0; i < 500; i++ {
		tm := Time(rng.Intn(50))
		b.PushPending(tm, i)
		byTime[tm] = append(byTime[tm], i)
	}
	prev := Time(0)
	for len(b.Pending) > 0 {
		head, _ := b.headPending()
		if head < prev {
			t.Fatalf("heap order violated: %v after %v", head, prev)
		}
		prev = head
		recs := b.popPendingAt(head, nil)
		if len(recs) != len(byTime[head]) {
			t.Fatalf("time %v: popped %d, want %d", head, len(recs), len(byTime[head]))
		}
		delete(byTime, head)
	}
	if len(byTime) != 0 {
		t.Fatalf("%d times never popped", len(byTime))
	}
}

// TestCodecRoundTrip: the binary format preserves state and pending records
// in heap order, and a bin whose state type, or whose pending records' type,
// has no binary encoding is an encode error.
func TestCodecRoundTrip(t *testing.T) {
	b := &BinState[KV[uint64, int64], MapState[uint64, int64]]{State: &MapState[uint64, int64]{M: map[uint64]int64{1: 10, 2: -5}}}
	b.PushPending(7, KV[uint64, int64]{Key: 1, Val: 2})
	b.PushPending(3, KV[uint64, int64]{Key: 9, Val: 4})

	enc, err := TransferBinary.EncodeBin(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != binFormatBinary {
		t.Fatalf("payload format %#x", enc[0])
	}
	got := &BinState[KV[uint64, int64], MapState[uint64, int64]]{State: new(MapState[uint64, int64])}
	if err := TransferBinary.DecodeBin(got, enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip: got %+v, want %+v", got, b)
	}
	if head, _ := got.headPending(); head != 3 {
		t.Errorf("pending head = %v, want 3", head)
	}

	type opaque struct{ N int }
	if _, err := TransferBinary.EncodeBin(&BinState[uint64, opaque]{State: &opaque{1}}, nil); err == nil {
		t.Error("a state type without BinaryState encoded")
	}
	ob := &BinState[opaque, MapState[uint64, int64]]{State: new(MapState[uint64, int64])}
	if _, err := TransferBinary.EncodeBin(ob, nil); err != nil {
		t.Errorf("no pending records: %v", err)
	}
	ob.PushPending(1, opaque{2})
	if _, err := TransferBinary.EncodeBin(ob, nil); err == nil {
		t.Error("pending records without a binary encoding encoded")
	}
}

// TestCodecEmpty: an empty bin round-trips.
func TestCodecEmpty(t *testing.T) {
	bb := &BinState[uint64, MapState[uint64, uint64]]{State: new(MapState[uint64, uint64])}
	enc, err := TransferBinary.EncodeBin(bb, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotB := &BinState[uint64, MapState[uint64, uint64]]{State: new(MapState[uint64, uint64])}
	if err := TransferBinary.DecodeBin(gotB, enc); err != nil {
		t.Fatal(err)
	}
	if enc[0] != binFormatBinary || len(gotB.Pending) != 0 || len(gotB.State.M) != 0 {
		t.Errorf("empty bin round-trip: tag %#x, %+v", enc[0], gotB)
	}
}

// TestNilTransferIsTheNamedCodec pins "one path": what Config.Transfer == nil
// means and what CodecByName("binary") returns are the same codec. Each
// decodes the other's payload to an equal bin, for a BinaryState type and
// for a bin with scalar pending records (map order makes the bytes
// themselves nondeterministic, so the decoded state is what is compared).
func TestNilTransferIsTheNamedCodec(t *testing.T) {
	var cfg Config
	cfg.defaults()
	named, err := CodecByName("binary")
	if err != nil {
		t.Fatal(err)
	}
	capable := &BinState[KV[uint64, int64], MapState[uint64, int64]]{
		State: &MapState[uint64, int64]{M: map[uint64]int64{1: -1, 2: 20, 3: 300}}}
	scalars := &BinState[uint64, MapState[string, int]]{State: &MapState[string, int]{M: map[string]int{"a": 1, "b": 2}}}
	scalars.PushPending(9, 4)

	for _, pair := range [][2]Codec{{cfg.Transfer, named}, {named, cfg.Transfer}} {
		enc, dec := pair[0], pair[1]
		p, err := enc.EncodeBin(capable, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotC := &BinState[KV[uint64, int64], MapState[uint64, int64]]{State: new(MapState[uint64, int64])}
		if err := dec.DecodeBin(gotC, p); err != nil {
			t.Fatal(err)
		}
		if p[0] != binFormatBinary || !reflect.DeepEqual(gotC, capable) {
			t.Errorf("BinaryState type: tag %#x, got %+v want %+v", p[0], gotC, capable)
		}
		if p, err = enc.EncodeBin(scalars, nil); err != nil {
			t.Fatal(err)
		}
		gotS := &BinState[uint64, MapState[string, int]]{State: new(MapState[string, int])}
		if err := dec.DecodeBin(gotS, p); err != nil {
			t.Fatal(err)
		}
		if p[0] != binFormatBinary || !reflect.DeepEqual(gotS, scalars) {
			t.Errorf("scalar pending records: tag %#x, got %+v want %+v", p[0], gotS, scalars)
		}
	}
	if cfg.Transfer.Name() != named.Name() {
		t.Errorf("names differ: nil config %q, named %q", cfg.Transfer.Name(), named.Name())
	}
}

// TestDecodeMalformedCounts: a corrupt payload whose length prefix claims
// far more entries than the payload holds must error, not allocate.
func TestDecodeMalformedCounts(t *testing.T) {
	// Binary format tag + absurd map count, nothing else.
	payload := append([]byte{binFormatBinary}, binenc.AppendUvarint(nil, 1<<60)...)
	bin := &BinState[KV[uint64, int64], MapState[uint64, int64]]{
		State: &MapState[uint64, int64]{M: map[uint64]int64{}},
	}
	if err := TransferBinary.DecodeBin(bin, payload); err == nil {
		t.Fatal("absurd map count decoded without error")
	}
	// Valid empty state followed by an absurd pending count.
	good := binenc.AppendUvarint([]byte{binFormatBinary}, 0) // empty map
	good = binenc.AppendUvarint(good, 1<<60)                 // pending count
	if err := TransferBinary.DecodeBin(bin, good); err == nil {
		t.Fatal("absurd pending count decoded without error")
	}
}

// TestOwnerHistory: routeAt-style lookups against the assignment history,
// including compaction.
func TestOwnerHistory(t *testing.T) {
	f := &fOp[int, int, int]{peers: 4, hist: make([][]assign, 8)}
	bin := 5
	if got := f.ownerAt(bin, 100); got != 5%4 {
		t.Fatalf("initial owner = %d", got)
	}
	f.hist[bin] = append(f.hist[bin], assign{From: 10, Worker: 2})
	f.hist[bin] = append(f.hist[bin], assign{From: 20, Worker: 0})
	cases := []struct {
		t    Time
		want int
	}{{5, 1}, {10, 2}, {15, 2}, {20, 0}, {99, 0}}
	for _, c := range cases {
		if got := f.ownerAt(bin, c.t); got != c.want {
			t.Errorf("ownerAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := f.ownerBefore(bin, 20); got != 2 {
		t.Errorf("ownerBefore(20) = %d, want 2", got)
	}
	if got := f.ownerBefore(bin, 10); got != 1 {
		t.Errorf("ownerBefore(10) = %d, want 1", got)
	}
	// Compaction keeps the entry effective at t and later ones.
	f.compact(bin, 20)
	if len(f.hist[bin]) != 1 || f.hist[bin][0].Worker != 0 {
		t.Errorf("after compact: %+v", f.hist[bin])
	}
	if got := f.ownerAt(bin, 25); got != 0 {
		t.Errorf("post-compact ownerAt(25) = %d", got)
	}
}

// TestBinsHolderTakeInstall covers the shared-bin lifecycle.
func TestBinsHolderTakeInstall(t *testing.T) {
	h := newBinsHolder[int, int](3)
	occupied := func() int {
		n := 0
		for _, s := range h.data {
			if s != nil {
				n++
			}
		}
		return n
	}
	if occupied() != 0 {
		t.Fatal("fresh holder occupied")
	}
	b := h.getOrCreate(2, func() *int { return new(int) })
	*b.State = 42
	if occupied() != 1 {
		t.Fatal("occupied != 1")
	}
	taken := h.take(2)
	if taken == nil || *taken.State != 42 {
		t.Fatal("take lost state")
	}
	if h.data[2] != nil {
		t.Fatal("take did not clear")
	}
	h.install(0, taken)
	if *h.data[0].State != 42 {
		t.Fatal("install mismatch")
	}
	if h.take(5) != nil {
		t.Fatal("taking an empty bin should return nil")
	}
}

// TestMatchingConversion sanity-checks the Move type used on the wire.
func TestInitialWorker(t *testing.T) {
	for peers := 1; peers <= 8; peers++ {
		for b := 0; b < 64; b++ {
			w := InitialWorker(b, peers)
			if w < 0 || w >= peers {
				t.Fatalf("InitialWorker(%d, %d) = %d out of range", b, peers, w)
			}
		}
	}
}
