package nexmark

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"megaphone/internal/core"
)

// Payload format tags (the first byte of every bin payload).
const (
	tagGob    = 0x00
	tagBinary = 0x01
)

// codecRoundTrip runs one bin through the state codec and checks that the
// payload carries the wanted format tag and reconstructs the original
// exactly (state and pending layout).
func codecRoundTrip[R, S any](t *testing.T, label string, wantTag byte, bin *core.BinState[R, S], newState func() *S) {
	t.Helper()
	payload, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	if payload[0] != wantTag {
		t.Fatalf("%s: payload format tag %#x, want %#x", label, payload[0], wantTag)
	}
	got := &core.BinState[R, S]{State: newState()}
	if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if !reflect.DeepEqual(got.State, bin.State) {
		t.Fatalf("%s: state mismatch\n got %+v\nwant %+v", label, got.State, bin.State)
	}
	if !reflect.DeepEqual(got.Pending, bin.Pending) {
		t.Fatalf("%s: pending mismatch\n got %+v\nwant %+v", label, got.Pending, bin.Pending)
	}
}

func randAuction(rng *rand.Rand) Auction {
	return Auction{
		ID:         rng.Uint64(),
		Seller:     rng.Uint64() % 1000,
		Category:   rng.Uint64() % 20,
		InitialBid: rng.Uint64() % 10000,
		Expires:    Time(rng.Intn(5000)),
		ItemName:   "item-" + string(rune('a'+rng.Intn(26))),
		DateTime:   Time(rng.Intn(5000)),
	}
}

func randBid(rng *rand.Rand) Bid {
	return Bid{
		Auction:  rng.Uint64() % 500,
		Bidder:   rng.Uint64() % 2000,
		Price:    rng.Uint64() % 100000,
		DateTime: Time(rng.Intn(5000)),
	}
}

func randPerson(rng *rand.Rand, id uint64) Person {
	return Person{
		ID:       id,
		Name:     "person",
		City:     "city",
		State:    "st",
		Email:    "a@example.com",
		DateTime: Time(rng.Intn(5000)),
	}
}

// TestQ4StateCodec: open auctions, best bids, stashed bids, and pending
// Either records (bids and expiry markers) round-trip identically.
func TestQ4StateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, size := range []int{0, 3, 500} {
		s := newQ4State()
		for i := 0; i < size; i++ {
			a := randAuction(rng)
			s.Open[a.ID] = a
			if i%2 == 0 {
				s.Best[a.ID] = rng.Uint64() % 5000
			}
			if i%3 == 0 {
				s.Stashed[a.ID] = []Bid{randBid(rng), randBid(rng)}
			}
		}
		bin := &core.BinState[core.Either[Bid, Auction], q4State]{State: s}
		for i := 0; i < size/2; i++ {
			bin.PushPending(Time(rng.Intn(100)), core.Left[Bid, Auction](randBid(rng)))
			bin.PushPending(Time(rng.Intn(100)), core.Right[Bid, Auction](Auction{ID: uint64(i), Closed: true}))
		}
		codecRoundTrip(t, "q4", tagBinary, bin, newQ4State)
	}
}

// TestQ5StateCodec: slide counts and last-report markers round-trip, with
// pending slide-marker bids.
func TestQ5StateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newQ5State()
	for i := 0; i < 200; i++ {
		s.Slides[Time(rng.Intn(1000))] = rng.Uint64() % 100
	}
	s.LastReport = 940
	bin := &core.BinState[Bid, q5State]{State: s}
	for i := 0; i < 40; i++ {
		bin.PushPending(Time(rng.Intn(100)), Bid{Auction: uint64(i)})
	}
	codecRoundTrip(t, "q5-count", tagBinary, bin, newQ5State)

	w := newQ5WinnerState()
	for i := 0; i < 100; i++ {
		w.Best[Time(rng.Intn(1000))] = q5Best{Auction: rng.Uint64(), Count: rng.Uint64() % 500}
	}
	wbin := &core.BinState[Q5Count, q5WinnerState]{State: w}
	for i := 0; i < 20; i++ {
		wbin.PushPending(Time(rng.Intn(100)), Q5Count{Window: Time(i)})
	}
	codecRoundTrip(t, "q5-winner", tagBinary, wbin, newQ5WinnerState)
}

// TestQ6RingCodec: the per-seller price ring round-trips inside MapState,
// the q6-avg operator's actual bin shape.
func TestQ6RingCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	newState := func() *core.MapState[uint64, q6Ring] {
		return &core.MapState[uint64, q6Ring]{M: make(map[uint64]q6Ring)}
	}
	s := newState()
	for i := 0; i < 300; i++ {
		var r q6Ring
		n := rng.Intn(15)
		for j := 0; j < n; j++ {
			r.push(rng.Uint64() % 10000)
		}
		s.M[rng.Uint64()%1000] = r
	}
	bin := &core.BinState[core.KV[uint64, uint64], core.MapState[uint64, q6Ring]]{State: s}
	codecRoundTrip(t, "q6-avg", tagBinary, bin, newState)
}

// TestQ7StateCodec: per-window maxima round-trip with pending window-close
// markers.
func TestQ7StateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newQ7State()
	for i := 0; i < 150; i++ {
		s.Windows[Time(rng.Intn(2000))] = Q7Out{
			Window: Time(rng.Intn(2000)),
			Price:  rng.Uint64() % 100000,
			Bidder: rng.Uint64() % 3000,
		}
	}
	bin := &core.BinState[Q7Out, q7State]{State: s}
	for i := 0; i < 25; i++ {
		bin.PushPending(Time(rng.Intn(100)), Q7Out{Window: Time(i * 60)})
	}
	codecRoundTrip(t, "q7", tagBinary, bin, newQ7State)
}

// TestQ8StateCodec: recent registrations round-trip with pending expiry
// markers and auction-side records.
func TestQ8StateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, size := range []int{0, 1000} {
		s := newQ8State()
		for i := 0; i < size; i++ {
			id := rng.Uint64() % 5000
			s.Since[id] = randPerson(rng, id)
		}
		bin := &core.BinState[core.Either[Person, Auction], q8State]{State: s}
		for i := 0; i < size/10; i++ {
			bin.PushPending(Time(rng.Intn(100)), core.Left[Person, Auction](Person{ID: uint64(i)}))
			bin.PushPending(Time(rng.Intn(100)), core.Right[Person, Auction](randAuction(rng)))
		}
		codecRoundTrip(t, "q8", tagBinary, bin, newQ8State)
	}
}

// TestQ3StateFallback: q3's join state has no BinaryState implementation, so
// its bins (and their pending Either records) ride the gob fallback — the
// path BENCHMARK.json's nx-q3-cluster workload measures.
func TestQ3StateFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newQ3State()
	for i := 0; i < 200; i++ {
		id := rng.Uint64() % 500
		s.Persons[id] = randPerson(rng, id)
		s.Auctions[id] = append(s.Auctions[id], randAuction(rng))
	}
	bin := &core.BinState[core.Either[Person, Auction], q3State]{State: s}
	bin.PushPending(9, core.Right[Person, Auction](randAuction(rng)))
	codecRoundTrip(t, "q3", tagGob, bin, newQ3State)
}

// TestBinaryPayloadSmaller: on a large q8 bin (the paper's biggest state),
// the hand-rolled encoding must be materially smaller than gob's
// type-described stream.
func TestBinaryPayloadSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := newQ8State()
	for i := 0; i < 2000; i++ {
		id := rng.Uint64()
		s.Since[id] = randPerson(rng, id)
	}
	bin := &core.BinState[core.Either[Person, Auction], q8State]{State: s}
	var gobP bytes.Buffer
	if err := gob.NewEncoder(&gobP).Encode(s); err != nil {
		t.Fatal(err)
	}
	binP, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(binP) >= gobP.Len() {
		t.Fatalf("binary payload %d >= gob payload %d", len(binP), gobP.Len())
	}
	t.Logf("q8 2000-person bin: gob=%d bytes, binary=%d bytes (%.1f%%)",
		gobP.Len(), len(binP), 100*float64(len(binP))/float64(gobP.Len()))
}

// fuzzDecodeBin is the property FuzzDecodeBin checks for one bin type: a
// binary-format payload either fails to decode or decodes to a bin that
// re-encodes and decodes to itself. It must never panic, and never allocate
// from an unchecked count (a giant allocation fails the fuzzer's memory
// limit).
func fuzzDecodeBin[R, S any](t *testing.T, data []byte, newState func() *S) {
	bin := &core.BinState[R, S]{State: newState()}
	if err := core.TransferBinary.DecodeBin(bin, data); err != nil {
		return
	}
	again, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatalf("re-encoding a decoded bin: %v", err)
	}
	back := &core.BinState[R, S]{State: newState()}
	if err := core.TransferBinary.DecodeBin(back, again); err != nil {
		t.Fatalf("decoding a re-encoded bin: %v", err)
	}
	if !reflect.DeepEqual(back, bin) {
		t.Fatalf("re-encode round trip changed the bin:\n got %+v\nwant %+v", back, bin)
	}
}

// FuzzDecodeBin feeds mutated binary-format payloads to the q4 and q8 state
// decoders, pending Either records included (the fallback's decoder is the
// standard library's). Seeds: one valid payload per state type, and
// truncations of each.
func FuzzDecodeBin(f *testing.F) {
	rng := rand.New(rand.NewSource(10))
	q4 := &core.BinState[core.Either[Bid, Auction], q4State]{State: newQ4State()}
	for i := 0; i < 3; i++ {
		a := randAuction(rng)
		q4.State.Open[a.ID] = a
		q4.State.Best[a.ID] = rng.Uint64() % 5000
		q4.State.Stashed[a.ID] = []Bid{randBid(rng)}
	}
	q4.PushPending(5, core.Left[Bid, Auction](randBid(rng)))
	q4.PushPending(3, core.Right[Bid, Auction](Auction{ID: 1, Closed: true}))
	q8 := &core.BinState[core.Either[Person, Auction], q8State]{State: newQ8State()}
	for id := uint64(1); id <= 3; id++ {
		q8.State.Since[id] = randPerson(rng, id)
	}
	q8.PushPending(7, core.Left[Person, Auction](Person{ID: 2}))
	q8.PushPending(4, core.Right[Person, Auction](randAuction(rng)))
	for _, bin := range []core.Migratable{q4, q8} {
		p, err := core.TransferBinary.EncodeBin(bin, nil)
		if err != nil {
			f.Fatal(err)
		}
		if p[0] != tagBinary {
			f.Fatalf("seed fell back to gob (tag %#x)", p[0])
		}
		for _, cut := range []int{len(p), len(p) - 1, len(p) / 2, 2, 1} {
			f.Add(p[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != tagBinary {
			return // the gob fallback is not under test
		}
		fuzzDecodeBin[core.Either[Bid, Auction]](t, data, newQ4State)
		fuzzDecodeBin[core.Either[Person, Auction]](t, data, newQ8State)
	})
}
