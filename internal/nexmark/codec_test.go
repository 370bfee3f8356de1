package nexmark

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"megaphone/internal/core"
)

// tagBinary is the binary format's tag, the first byte of a bin payload.
const tagBinary = 0x01

// codecRoundTrip runs one bin through the state codec and checks that the
// payload is in the binary format and reconstructs the original exactly
// (state and pending layout).
func codecRoundTrip[R, S any](t *testing.T, label string, bin *core.BinState[R, S], newState func() *S) {
	t.Helper()
	payload, err := core.TransferBinary.EncodeBin(bin, nil)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	if payload[0] != tagBinary {
		t.Fatalf("%s: payload format tag %#x, want %#x", label, payload[0], tagBinary)
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
		codecRoundTrip(t, "q4", bin, newQ4State)
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
	codecRoundTrip(t, "q5-count", bin, newQ5State)

	w := newQ5WinnerState()
	for i := 0; i < 100; i++ {
		w.Best[Time(rng.Intn(1000))] = q5Best{Auction: rng.Uint64(), Count: rng.Uint64() % 500}
	}
	wbin := &core.BinState[Q5Count, q5WinnerState]{State: w}
	for i := 0; i < 20; i++ {
		wbin.PushPending(Time(rng.Intn(100)), Q5Count{Window: Time(i)})
	}
	codecRoundTrip(t, "q5-winner", wbin, newQ5WinnerState)
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
	codecRoundTrip(t, "q6-avg", bin, newState)
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
	codecRoundTrip(t, "q7", bin, newQ7State)
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
		codecRoundTrip(t, "q8", bin, newQ8State)
	}
}

// q3Feed applies recs to a q3 bin in order and returns what the join
// emitted, rendered as "name/city/state:auction".
func q3Feed(s *q3State, recs ...core.Either[Person, Auction]) []string {
	var out []string
	for _, e := range recs {
		q3Apply(e, s, func(o Q3Out) {
			out = append(out, fmt.Sprintf("%s/%s/%s:%d", o.Name, o.City, o.State, o.Auction))
		})
	}
	return out
}

// q3Person is a wanted person whose fields name its id.
func q3Person(id uint64) core.Either[Person, Auction] {
	return core.Left[Person, Auction](Person{
		ID: id, Name: fmt.Sprintf("person-%d", id), City: "Boise", State: "ID",
		Email: fmt.Sprintf("p%d@example.com", id), DateTime: 7,
	})
}

func q3Auction(id, seller uint64) core.Either[Person, Auction] {
	return core.Right[Person, Auction](Auction{ID: id, Seller: seller, Category: 10, ItemName: "item"})
}

// TestQ3StateCodec: q3's join state ships in the binary format, pending
// Either records included, and a bin that crossed the wire joins exactly as
// the one that stayed: a duplicate person is ignored, and auctions seen
// before their seller come out in arrival order once it arrives.
func TestQ3StateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 200} {
		s := newQ3State()
		for i := 0; i < size; i++ {
			q3Feed(s, q3Person(rng.Uint64()%500), q3Auction(uint64(i), rng.Uint64()%1000))
		}
		bin := &core.BinState[core.Either[Person, Auction], q3State]{State: s}
		bin.PushPending(9, core.Right[Person, Auction](randAuction(rng)))
		bin.PushPending(4, core.Left[Person, Auction](randPerson(rng, 3)))
		codecRoundTrip(t, "q3", bin, newQ3State)
	}

	// Seller 7's auctions arrive before seller 7, interleaved with seller
	// 8's; the bin migrates between them.
	s := newQ3State()
	if out := q3Feed(s, q3Auction(30, 7), q3Auction(31, 8), q3Auction(10, 7), q3Auction(20, 7)); len(out) != 0 {
		t.Fatalf("auctions without their seller emitted %v", out)
	}
	payload, err := core.TransferBinary.EncodeBin(&core.BinState[core.Either[Person, Auction], q3State]{State: s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := &core.BinState[core.Either[Person, Auction], q3State]{State: newQ3State()}
	if err := core.TransferBinary.DecodeBin(moved, payload); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*q3State{"stayed": s, "moved": moved.State} {
		impostor := core.Left[Person, Auction](Person{ID: 7, Name: "impostor", City: "Reno", State: "CA"})
		got := q3Feed(st, q3Person(7), impostor, q3Auction(40, 7), q3Person(8))
		want := []string{
			"person-7/Boise/ID:30", "person-7/Boise/ID:10", "person-7/Boise/ID:20", // arrival order
			"person-7/Boise/ID:40", // joins on arrival, with the first person 7
			"person-8/Boise/ID:31",
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: joined %v, want %v", name, got, want)
		}
	}
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

// BenchmarkQ3BinRoundTrip: one encode and one decode of a q3 bin of 300
// persons and 160 auctions waiting for 40 sellers, the serial work a fluid
// step does per q3 bin.
func BenchmarkQ3BinRoundTrip(b *testing.B) {
	s := newQ3State()
	for i := uint64(0); i < 300; i++ {
		q3Feed(s, q3Person(i))
	}
	for i := uint64(0); i < 160; i++ {
		q3Feed(s, q3Auction(i, 1000+i%40))
	}
	bin := &core.BinState[core.Either[Person, Auction], q3State]{State: s}
	b.ReportAllocs()
	for b.Loop() {
		p, err := core.TransferBinary.EncodeBin(bin, nil)
		if err != nil {
			b.Fatal(err)
		}
		got := &core.BinState[core.Either[Person, Auction], q3State]{State: newQ3State()}
		if err := core.TransferBinary.DecodeBin(got, p); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(p)))
	}
}

// fuzzDecodeBin is the property FuzzDecodeBin checks for one bin type: a
// payload either fails to decode or carries the binary format tag and
// decodes to a bin that re-encodes and decodes to itself. It must never
// panic, and never allocate from an unchecked count (a giant allocation
// fails the fuzzer's memory limit).
func fuzzDecodeBin[R, S any](t *testing.T, data []byte, newState func() *S) {
	bin := &core.BinState[R, S]{State: newState()}
	if err := core.TransferBinary.DecodeBin(bin, data); err != nil {
		return
	}
	if data[0] != tagBinary {
		t.Fatalf("a payload tagged %#x decoded", data[0])
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

// FuzzDecodeBin feeds mutated payloads to the q3, q4 and q8 state decoders,
// pending Either records included. Seeds: one valid payload per state type,
// truncations of each, and a bin tagged 0x00, the retired gob format, which
// must not decode.
func FuzzDecodeBin(f *testing.F) {
	q3 := &core.BinState[core.Either[Person, Auction], q3State]{State: newQ3State()}
	q3Feed(q3.State, q3Person(1), q3Person(2), q3Auction(5, 9), q3Auction(6, 1), q3Auction(7, 9), q3Auction(8, 4))
	q3.PushPending(6, q3Auction(9, 2))
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
	for _, bin := range []core.Migratable{q3, q4, q8} {
		p, err := core.TransferBinary.EncodeBin(bin, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(p), len(p) - 1, len(p) / 2, 2, 1} {
			f.Add(p[:cut])
		}
	}
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecodeBin[core.Either[Person, Auction]](t, data, newQ3State)
		if len(data) == 0 {
			return
		}
		// A q3 bin that decodes must also join: walk every chain and entry.
		s := newQ3State()
		if _, err := s.DecodeBinaryState(data[1:]); err == nil {
			for seller := range s.sellers {
				q3Feed(s, q3Person(seller))
			}
			for id := range s.persons {
				q3Feed(s, q3Auction(0, id))
			}
		}
		fuzzDecodeBin[core.Either[Bid, Auction]](t, data, newQ4State)
		fuzzDecodeBin[core.Either[Person, Auction]](t, data, newQ8State)
	})
}
