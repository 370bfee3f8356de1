package nexmark

import (
	"encoding/binary"
	"math"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q3 — LOCAL ITEM SUGGESTION. Incremental join of people in Oregon, Idaho
// or California with auctions in a category, keyed by person id = seller.
// The join state (both relations) grows without bound as the computation
// runs (Figure 7).

// Q3Out is one join result.
type Q3Out struct {
	Name    string
	City    string
	State   string
	Auction uint64
}

// q3State is one bin of the join. It keeps only what q3 emits, and in a form
// with no pointers for the collector to chase, which is also the form it
// ships in (codec.go):
//
//   - arena holds each wanted person's Name, City and State back to back,
//     one entry per person: the three lengths as uvarints, then the bytes;
//   - persons maps a person id to the offset of its arena entry;
//   - nodes holds the ids of auctions still waiting for their seller, each
//     seller's chained through Next in arrival order, and sellers maps a
//     seller to the first and last node of its chain.
//
// An auction whose seller is already known joins on arrival and is not kept.
// When a seller arrives its chain is emitted and dropped from sellers; the
// nodes stay in the slice (a seller is created before its auctions, so only
// exchange reordering puts an auction first, and rarely).
type q3State struct {
	arena   []byte
	persons map[uint64]uint32
	nodes   []q3Node
	sellers map[uint64]q3Chain
}

// q3Node is one waiting auction. Next is the seller's following node; it is
// meaningless at the last node of a chain.
type q3Node struct {
	Auction uint64
	Next    uint32
}

// q3Chain locates one seller's waiting auctions in nodes.
type q3Chain struct{ First, Last uint32 }

func q3Wanted(state string) bool { return state == "OR" || state == "ID" || state == "CA" }

func newQ3State() *q3State {
	return &q3State{persons: make(map[uint64]uint32), sellers: make(map[uint64]q3Chain)}
}

// q3Apply is the shared join logic over one Either record: a duplicate
// person is ignored, and a seller's auctions are emitted in arrival order.
func q3Apply(e core.Either[Person, Auction], s *q3State, emit func(Q3Out)) {
	if e.IsRight {
		s.auction(e.Right.Seller, e.Right.ID, emit)
	} else {
		s.person(&e.Left, emit)
	}
}

func (s *q3State) person(p *Person, emit func(Q3Out)) {
	if _, dup := s.persons[p.ID]; dup {
		return
	}
	if len(s.arena) > math.MaxUint32 {
		panic("nexmark: a q3 bin holds more than 4 GiB of person names")
	}
	off := uint32(len(s.arena))
	s.arena = binenc.AppendUvarint(s.arena, uint64(len(p.Name)))
	s.arena = binenc.AppendUvarint(s.arena, uint64(len(p.City)))
	s.arena = binenc.AppendUvarint(s.arena, uint64(len(p.State)))
	s.arena = append(append(append(s.arena, p.Name...), p.City...), p.State...)
	s.persons[p.ID] = off

	c, waiting := s.sellers[p.ID]
	if !waiting {
		return
	}
	delete(s.sellers, p.ID)
	o := s.joined(off)
	for i := c.First; ; i = s.nodes[i].Next {
		o.Auction = s.nodes[i].Auction
		emit(o)
		if i == c.Last {
			return
		}
	}
}

func (s *q3State) auction(seller, id uint64, emit func(Q3Out)) {
	if off, ok := s.persons[seller]; ok {
		o := s.joined(off)
		o.Auction = id
		emit(o)
		return
	}
	if len(s.nodes) >= math.MaxUint32 {
		panic("nexmark: a q3 bin holds more than 2^32 waiting auctions")
	}
	i := uint32(len(s.nodes))
	s.nodes = append(s.nodes, q3Node{Auction: id})
	c, ok := s.sellers[seller]
	if ok {
		s.nodes[c.Last].Next = i
		c.Last = i
	} else {
		c = q3Chain{First: i, Last: i}
	}
	s.sellers[seller] = c
}

// joined renders the person whose arena entry is at off as a join result
// (Auction unset). The three strings share one allocation.
func (s *q3State) joined(off uint32) Q3Out {
	name, city, state, body, _ := q3Entry(s.arena, off)
	all := string(s.arena[body : body+name+city+state])
	return Q3Out{Name: all[:name], City: all[name : name+city], State: all[name+city:]}
}

// q3Entry decodes the lengths of the arena entry at off and the offset of
// its first byte; ok is false when the entry does not lie wholly inside the
// arena.
func q3Entry(arena []byte, off uint32) (name, city, state, body int, ok bool) {
	if uint64(off) >= uint64(len(arena)) {
		return 0, 0, 0, 0, false
	}
	e := arena[off:]
	var n [3]uint64
	for i := range n {
		x, k := binary.Uvarint(e)
		if k <= 0 {
			return 0, 0, 0, 0, false
		}
		n[i], e = x, e[k:]
	}
	rest := uint64(len(e))
	if n[0] > rest || n[1] > rest-n[0] || n[2] > rest-n[0]-n[1] {
		return 0, 0, 0, 0, false
	}
	return int(n[0]), int(n[1]), int(n[2]), len(arena) - len(e), true
}

// BuildQ3 builds query 3 under the chosen implementation.
func BuildQ3(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Q3Out] {
	p.defaults()
	people := operators.Filter(w, "q3-people", Persons(w, "q3-persons", events),
		func(pe Person) bool { return q3Wanted(pe.State) })
	auctions := operators.Filter(w, "q3-auctions", Auctions(w, "q3-auction-src", events),
		func(a Auction) bool { return a.Category == p.Category })

	if p.Impl == Native {
		// BEGIN Q3 NATIVE
		merged := mergeNative(w, "q3-merge", people, auctions)
		return operators.UnaryNotify(w, "q3-join", merged,
			dataflow.Exchange[core.Either[Person, Auction]]{Hash: func(e core.Either[Person, Auction]) uint64 {
				if e.IsRight {
					return core.Mix64(e.Right.Seller)
				}
				return core.Mix64(e.Left.ID)
			}},
			newQ3State,
			func(t Time, data []core.Either[Person, Auction], s *q3State, emit func(Q3Out)) {
				for _, e := range data {
					q3Apply(e, s, emit)
				}
			})
		// END Q3 NATIVE
	}
	// BEGIN Q3 MEGAPHONE
	return core.Binary(w,
		p.config("q3"),
		ctl, people, auctions,
		func(pe Person) uint64 { return core.Mix64(pe.ID) },
		func(a Auction) uint64 { return core.Mix64(a.Seller) },
		newQ3State,
		func(t Time, e core.Either[Person, Auction], s *q3State, _ *core.Notificator[core.Either[Person, Auction], q3State, Q3Out], emit func(Q3Out)) {
			q3Apply(e, s, emit)
		}, nil)
	// END Q3 MEGAPHONE
}
