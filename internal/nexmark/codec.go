package nexmark

import (
	"encoding/binary"
	"fmt"
	"slices"

	"megaphone/internal/binenc"
)

// Binary migration encodings (core.BinaryState / core.BinaryRec) for the
// NEXMark query state and event types, used by core.TransferBinary. Q3–Q8
// keep per-bin state that can grow large (the unbounded join, open auctions,
// sliding windows, registration joins), so every stateful query's bins ship
// in the binary format; Q3's state is laid out so that its wire form is its
// memory form. Q6's averaging stage is a core.MapState, which package core
// already covers, and the stateless Q1/Q2 keep noState bins, whose state
// encodes to zero bytes.
//
// Q4 and Q8 additionally schedule post-dated records (auction expiries,
// registration expiries), so their record types — Bid, Auction, Person and
// their core.Either merges — implement core.BinaryRec, letting pending
// heaps migrate in the binary format too.

// --- Q1/Q2: no state ---

// noState is the per-bin state of the stateless Q1 and Q2. A migration
// still moves their bins (Figures 5 and 6), each an empty state.
type noState struct{}

// AppendBinaryState implements core.BinaryState: nothing to encode.
func (*noState) AppendBinaryState(buf []byte) []byte { return buf }

// DecodeBinaryState implements core.BinaryState.
func (*noState) DecodeBinaryState(data []byte) ([]byte, error) { return data, nil }

// --- Event records (core.BinaryRec) ---

// AppendBinaryRec implements core.BinaryRec.
func (b *Bid) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, b.Auction)
	buf = binenc.AppendUvarint(buf, b.Bidder)
	buf = binenc.AppendUvarint(buf, b.Price)
	return binenc.AppendUvarint(buf, uint64(b.DateTime))
}

// DecodeBinaryRec implements core.BinaryRec.
func (b *Bid) DecodeBinaryRec(data []byte) ([]byte, error) {
	var err error
	if b.Auction, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if b.Bidder, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if b.Price, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	t, data, err := binenc.Uvarint(data)
	b.DateTime = Time(t)
	return data, err
}

// AppendBinaryRec implements core.BinaryRec.
func (a *Auction) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, a.ID)
	buf = binenc.AppendUvarint(buf, a.Seller)
	buf = binenc.AppendUvarint(buf, a.Category)
	buf = binenc.AppendUvarint(buf, a.InitialBid)
	buf = binenc.AppendUvarint(buf, uint64(a.Expires))
	buf = binenc.AppendString(buf, a.ItemName)
	buf = binenc.AppendUvarint(buf, uint64(a.DateTime))
	return binenc.AppendBool(buf, a.Closed)
}

// DecodeBinaryRec implements core.BinaryRec.
func (a *Auction) DecodeBinaryRec(data []byte) ([]byte, error) {
	var err error
	if a.ID, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if a.Seller, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if a.Category, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if a.InitialBid, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	var t uint64
	if t, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	a.Expires = Time(t)
	if a.ItemName, data, err = binenc.String(data); err != nil {
		return nil, err
	}
	if t, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	a.DateTime = Time(t)
	a.Closed, data, err = binenc.Bool(data)
	return data, err
}

// AppendBinaryRec implements core.BinaryRec.
func (p *Person) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, p.ID)
	buf = binenc.AppendString(buf, p.Name)
	buf = binenc.AppendString(buf, p.City)
	buf = binenc.AppendString(buf, p.State)
	buf = binenc.AppendString(buf, p.Email)
	return binenc.AppendUvarint(buf, uint64(p.DateTime))
}

// DecodeBinaryRec implements core.BinaryRec.
func (p *Person) DecodeBinaryRec(data []byte) ([]byte, error) {
	var err error
	if p.ID, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if p.Name, data, err = binenc.String(data); err != nil {
		return nil, err
	}
	if p.City, data, err = binenc.String(data); err != nil {
		return nil, err
	}
	if p.State, data, err = binenc.String(data); err != nil {
		return nil, err
	}
	if p.Email, data, err = binenc.String(data); err != nil {
		return nil, err
	}
	t, data, err := binenc.Uvarint(data)
	p.DateTime = Time(t)
	return data, err
}

// AppendBinaryRec implements core.BinaryRec.
func (c *Q5Count) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(c.Window))
	buf = binenc.AppendUvarint(buf, c.Auction)
	return binenc.AppendUvarint(buf, c.Count)
}

// DecodeBinaryRec implements core.BinaryRec.
func (c *Q5Count) DecodeBinaryRec(data []byte) ([]byte, error) {
	w, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, err
	}
	c.Window = Time(w)
	if c.Auction, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	c.Count, data, err = binenc.Uvarint(data)
	return data, err
}

// AppendBinaryRec implements core.BinaryRec.
func (o *Q7Out) AppendBinaryRec(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(o.Window))
	buf = binenc.AppendUvarint(buf, o.Price)
	return binenc.AppendUvarint(buf, o.Bidder)
}

// DecodeBinaryRec implements core.BinaryRec.
func (o *Q7Out) DecodeBinaryRec(data []byte) ([]byte, error) {
	w, data, err := binenc.Uvarint(data)
	if err != nil {
		return nil, err
	}
	o.Window = Time(w)
	if o.Price, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	o.Bidder, data, err = binenc.Uvarint(data)
	return data, err
}

// --- Q3: the join (core.BinaryState) ---

// AppendBinaryState implements core.BinaryState. The wire form is the memory
// form (see q3State): the arena whole, then the persons, nodes and sellers
// tables at fixed width, each behind its count.
func (s *q3State) AppendBinaryState(buf []byte) []byte {
	buf = slices.Grow(buf, 4*binary.MaxVarintLen64+len(s.arena)+12*len(s.persons)+12*len(s.nodes)+16*len(s.sellers))
	buf = binenc.AppendUvarint(buf, uint64(len(s.arena)))
	buf = append(buf, s.arena...)
	buf = binenc.AppendUvarint(buf, uint64(len(s.persons)))
	for id, off := range s.persons {
		buf = binenc.AppendU64(buf, id)
		buf = binenc.AppendU32(buf, off)
	}
	buf = binenc.AppendUvarint(buf, uint64(len(s.nodes)))
	for _, n := range s.nodes {
		buf = binenc.AppendU64(buf, n.Auction)
		buf = binenc.AppendU32(buf, n.Next)
	}
	buf = binenc.AppendUvarint(buf, uint64(len(s.sellers)))
	for seller, c := range s.sellers {
		buf = binenc.AppendU64(buf, seller)
		buf = binenc.AppendU32(buf, c.First)
		buf = binenc.AppendU32(buf, c.Last)
	}
	return buf
}

// DecodeBinaryState implements core.BinaryState. The arena is copied (the
// payload belongs to the transport) and the maps are rebuilt; every count is
// bounded by the bytes left, and every arena offset, node index and chain is
// checked, so a corrupt payload is an error rather than a panic or a hang
// when the join later walks it.
func (s *q3State) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 1)
	if err != nil {
		return nil, err
	}
	s.arena = append([]byte(nil), data[:n]...)
	data = data[n:]

	if n, data, err = binenc.Count(data, 12); err != nil {
		return nil, err
	}
	s.persons = make(map[uint64]uint32, n)
	for i := uint64(0); i < n; i++ {
		var id uint64
		var off uint32
		id, data, _ = binenc.U64(data)
		off, data, _ = binenc.U32(data)
		if _, _, _, _, ok := q3Entry(s.arena, off); !ok {
			return nil, fmt.Errorf("q3 person %d: bad arena offset %d: %w", id, off, binenc.ErrShort)
		}
		s.persons[id] = off
	}

	if n, data, err = binenc.Count(data, 12); err != nil {
		return nil, err
	}
	s.nodes = nil
	if n > 0 {
		s.nodes = make([]q3Node, n)
	}
	for i := range s.nodes {
		s.nodes[i].Auction, data, _ = binenc.U64(data)
		s.nodes[i].Next, data, _ = binenc.U32(data)
		if uint64(s.nodes[i].Next) >= n {
			return nil, fmt.Errorf("q3 node %d: next %d out of range: %w", i, s.nodes[i].Next, binenc.ErrShort)
		}
	}

	if n, data, err = binenc.Count(data, 16); err != nil {
		return nil, err
	}
	s.sellers = make(map[uint64]q3Chain, n)
	inChain := make([]bool, len(s.nodes))
	for i := uint64(0); i < n; i++ {
		var seller uint64
		var c q3Chain
		seller, data, _ = binenc.U64(data)
		c.First, data, _ = binenc.U32(data)
		c.Last, data, _ = binenc.U32(data)
		// Walk the chain: it must reach Last through nodes no other chain
		// holds, which bounds every walk by the node count.
		for j := c.First; ; j = s.nodes[j].Next {
			if int(j) >= len(s.nodes) || inChain[j] {
				return nil, fmt.Errorf("q3 seller %d: chain %d..%d broken at node %d: %w", seller, c.First, c.Last, j, binenc.ErrShort)
			}
			inChain[j] = true
			if j == c.Last {
				break
			}
		}
		s.sellers[seller] = c
	}
	return data, nil
}

// --- Q4: open auctions (core.BinaryState) ---

// AppendBinaryState implements core.BinaryState.
func (s *q4State) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(s.Open)))
	for id, a := range s.Open {
		buf = binenc.AppendUvarint(buf, id)
		buf = a.AppendBinaryRec(buf)
	}
	buf = binenc.AppendUvarint(buf, uint64(len(s.Best)))
	for id, price := range s.Best {
		buf = binenc.AppendUvarint(buf, id)
		buf = binenc.AppendUvarint(buf, price)
	}
	buf = binenc.AppendUvarint(buf, uint64(len(s.Stashed)))
	for id, bids := range s.Stashed {
		buf = binenc.AppendUvarint(buf, id)
		buf = binenc.AppendUvarint(buf, uint64(len(bids)))
		for i := range bids {
			buf = bids[i].AppendBinaryRec(buf)
		}
	}
	return buf
}

// DecodeBinaryState implements core.BinaryState.
func (s *q4State) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 2)
	if err != nil {
		return nil, err
	}
	s.Open = make(map[uint64]Auction, n)
	for i := uint64(0); i < n; i++ {
		var id uint64
		if id, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		var a Auction
		if data, err = a.DecodeBinaryRec(data); err != nil {
			return nil, err
		}
		s.Open[id] = a
	}
	if n, data, err = binenc.Count(data, 2); err != nil {
		return nil, err
	}
	s.Best = make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		var id, price uint64
		if id, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if price, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		s.Best[id] = price
	}
	if n, data, err = binenc.Count(data, 2); err != nil {
		return nil, err
	}
	s.Stashed = make(map[uint64][]Bid, n)
	for i := uint64(0); i < n; i++ {
		var id, m uint64
		if id, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if m, data, err = binenc.Count(data, 4); err != nil { // 4 uvarints per bid
			return nil, err
		}
		bids := make([]Bid, m)
		for j := range bids {
			if data, err = bids[j].DecodeBinaryRec(data); err != nil {
				return nil, err
			}
		}
		s.Stashed[id] = bids
	}
	return data, nil
}

// --- Q5: sliding-window counts and per-window winners ---

// AppendBinaryState implements core.BinaryState.
func (s *q5State) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(s.Slides)))
	for start, c := range s.Slides {
		buf = binenc.AppendUvarint(buf, uint64(start))
		buf = binenc.AppendUvarint(buf, c)
	}
	return binenc.AppendUvarint(buf, uint64(s.LastReport))
}

// DecodeBinaryState implements core.BinaryState.
func (s *q5State) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 2)
	if err != nil {
		return nil, err
	}
	s.Slides = make(map[Time]uint64, n)
	for i := uint64(0); i < n; i++ {
		var start, c uint64
		if start, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if c, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		s.Slides[Time(start)] = c
	}
	last, data, err := binenc.Uvarint(data)
	s.LastReport = Time(last)
	return data, err
}

// AppendBinaryState implements core.BinaryState.
func (s *q5WinnerState) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(s.Best)))
	for w, b := range s.Best {
		buf = binenc.AppendUvarint(buf, uint64(w))
		buf = binenc.AppendUvarint(buf, b.Auction)
		buf = binenc.AppendUvarint(buf, b.Count)
	}
	return buf
}

// DecodeBinaryState implements core.BinaryState.
func (s *q5WinnerState) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 3)
	if err != nil {
		return nil, err
	}
	s.Best = make(map[Time]q5Best, n)
	for i := uint64(0); i < n; i++ {
		var w uint64
		var b q5Best
		if w, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if b.Auction, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		if b.Count, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		s.Best[Time(w)] = b
	}
	return data, nil
}

// --- Q6: last-ten price ring (core.BinaryRec, as a MapState value) ---

// AppendBinaryRec implements core.BinaryRec so MapState[uint64, q6Ring]
// (the q6-avg operator's bins) can migrate in binary form.
func (r *q6Ring) AppendBinaryRec(buf []byte) []byte {
	for _, p := range r.Prices {
		buf = binenc.AppendUvarint(buf, p)
	}
	buf = binenc.AppendUvarint(buf, uint64(r.Len))
	return binenc.AppendUvarint(buf, uint64(r.Next))
}

// DecodeBinaryRec implements core.BinaryRec.
func (r *q6Ring) DecodeBinaryRec(data []byte) ([]byte, error) {
	var err error
	for i := range r.Prices {
		if r.Prices[i], data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
	}
	var v uint64
	if v, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if v > uint64(len(r.Prices)) {
		return nil, fmt.Errorf("q6 ring Len %d exceeds %d slots: %w", v, len(r.Prices), binenc.ErrShort)
	}
	r.Len = int(v)
	if v, data, err = binenc.Uvarint(data); err != nil {
		return nil, err
	}
	if v >= uint64(len(r.Prices)) {
		return nil, fmt.Errorf("q6 ring Next %d out of range: %w", v, binenc.ErrShort)
	}
	r.Next = int(v)
	return data, nil
}

// --- Q7: per-window maxima ---

// AppendBinaryState implements core.BinaryState.
func (s *q7State) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(s.Windows)))
	for w, o := range s.Windows {
		buf = binenc.AppendUvarint(buf, uint64(w))
		buf = o.AppendBinaryRec(buf)
	}
	return buf
}

// DecodeBinaryState implements core.BinaryState.
func (s *q7State) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 4)
	if err != nil {
		return nil, err
	}
	s.Windows = make(map[Time]Q7Out, n)
	for i := uint64(0); i < n; i++ {
		var w uint64
		if w, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		var o Q7Out
		if data, err = o.DecodeBinaryRec(data); err != nil {
			return nil, err
		}
		s.Windows[Time(w)] = o
	}
	return data, nil
}

// --- Q8: recent registrations ---

// AppendBinaryState implements core.BinaryState. Only Since is encoded:
// the within-epoch auction buffer (q8State.pending) describes a single,
// already-completed epoch by the time a bin can migrate or checkpoint, so
// it is dead state on arrival and deliberately omitted.
func (s *q8State) AppendBinaryState(buf []byte) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(s.Since)))
	for id, p := range s.Since {
		buf = binenc.AppendUvarint(buf, id)
		buf = p.AppendBinaryRec(buf)
	}
	return buf
}

// DecodeBinaryState implements core.BinaryState.
func (s *q8State) DecodeBinaryState(data []byte) ([]byte, error) {
	n, data, err := binenc.Count(data, 2)
	if err != nil {
		return nil, err
	}
	s.Since = make(map[uint64]Person, n)
	for i := uint64(0); i < n; i++ {
		var id uint64
		if id, data, err = binenc.Uvarint(data); err != nil {
			return nil, err
		}
		var p Person
		if data, err = p.DecodeBinaryRec(data); err != nil {
			return nil, err
		}
		s.Since[id] = p
	}
	return data, nil
}
