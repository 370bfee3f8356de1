package nexmark

import (
	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
)

// Q8 — MONITOR NEW USERS. A windowed join between people who registered
// within the last window and auctions they opened as sellers. With the
// paper's twelve-hour windows this query can accumulate a massive amount of
// state; once reached, the peak size is maintained as old entries expire
// (Figure 12).
//
// Both implementations apply one canonical order within a timestamp t —
// (1) expire registrations whose window [reg, reg+window) has closed,
// (2) apply person registrations at t, (3) join auctions at t — so the
// output is a pure function of each epoch's event *set*. Without this the
// join is order-sensitive for a person and an auction arriving in the same
// epoch (their interleaving across exchange channels is scheduling
// dependent) and at the expiry boundary, which is what used to force a
// tolerance into the native-vs-megaphone equivalence test.

// Q8Out is one new seller detected.
type Q8Out struct {
	Person  uint64
	Name    string
	Auction uint64
}

// q8State maps recently registered person ids to their registration.
type q8State struct {
	Since map[uint64]Person
	// Within-epoch canonicalization: auctions whose seller was not yet
	// registered when they were applied wait here until the rest of their
	// epoch's persons arrive (step 2 before step 3 above, regardless of
	// arrival order). The buffer only describes epoch bufEpoch and is dead
	// the moment that epoch completes, and migrations and checkpoints only
	// happen on epoch boundaries — so it is deliberately unexported and
	// not part of the migrateable state (see codec.go).
	pending  map[uint64][]uint64
	bufEpoch Time
}

func newQ8State() *q8State { return &q8State{Since: make(map[uint64]Person)} }

// park holds an auction whose seller is not yet registered until the rest
// of its epoch's persons have been applied (canonical step 2 before step
// 3); the buffer resets lazily when the epoch changes.
func (s *q8State) park(t Time, a Auction) {
	if s.bufEpoch != t {
		s.bufEpoch = t
		if len(s.pending) > 0 {
			clear(s.pending)
		}
	}
	if s.pending == nil {
		s.pending = make(map[uint64][]uint64)
	}
	s.pending[a.Seller] = append(s.pending[a.Seller], a.ID)
}

// take returns (and forgets) the auctions parked this epoch for seller id.
func (s *q8State) take(t Time, id uint64) []uint64 {
	if s.bufEpoch != t {
		return nil
	}
	out := s.pending[id]
	delete(s.pending, id)
	return out
}

// BuildQ8 builds query 8 under the chosen implementation.
func BuildQ8(w *dataflow.Worker, p Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[Event]) dataflow.Stream[Q8Out] {
	p.defaults()
	people := Persons(w, "q8-people", events)
	auctions := Auctions(w, "q8-auctions", events)
	window := p.WindowEpochs

	if p.Impl == Native {
		// BEGIN Q8 NATIVE
		type wheel struct {
			q8State
			expiring map[Time][]uint64
		}
		merged := mergeNative(w, "q8-merge", people, auctions)
		return operators.UnaryScheduled(w, "q8-join", merged,
			dataflow.Exchange[core.Either[Person, Auction]]{Hash: func(e core.Either[Person, Auction]) uint64 {
				if e.IsRight {
					return core.Mix64(e.Right.Seller)
				}
				return core.Mix64(e.Left.ID)
			}},
			func() *wheel {
				return &wheel{q8State: *newQ8State(), expiring: make(map[Time][]uint64)}
			},
			func(t Time, data []core.Either[Person, Auction], s *wheel, schedule func(Time), emit func(Q8Out)) {
				// 1. Expirations due at t (window [reg, reg+window)).
				for _, id := range s.expiring[t] {
					if pe, ok := s.Since[id]; ok && pe.DateTime+window <= t {
						delete(s.Since, id)
					}
				}
				delete(s.expiring, t)
				// 2. Registrations at t.
				for i := range data {
					if e := &data[i]; !e.IsRight {
						pe := &e.Left
						s.Since[pe.ID] = *pe
						s.expiring[t+window] = append(s.expiring[t+window], pe.ID)
						schedule(t + window)
					}
				}
				// 3. Joins at t.
				for i := range data {
					if e := &data[i]; e.IsRight {
						if pe, ok := s.Since[e.Right.Seller]; ok {
							emit(Q8Out{Person: pe.ID, Name: pe.Name, Auction: e.Right.ID})
						}
					}
				}
			})
		// END Q8 NATIVE
	}
	// BEGIN Q8 MEGAPHONE
	return core.Binary(w,
		p.config("q8"),
		ctl, people, auctions,
		func(pe Person) uint64 { return core.Mix64(pe.ID) },
		func(a Auction) uint64 { return core.Mix64(a.Seller) },
		newQ8State,
		func(t Time, e core.Either[Person, Auction], s *q8State,
			n *core.Notificator[core.Either[Person, Auction], q8State, Q8Out], emit func(Q8Out)) {
			if e.IsRight {
				if pe, ok := s.Since[e.Right.Seller]; ok {
					emit(Q8Out{Person: pe.ID, Name: pe.Name, Auction: e.Right.ID})
				} else {
					// The seller may still register later this epoch.
					s.park(t, e.Right)
				}
				return
			}
			pe := e.Left
			if pe.Name == "" {
				// Expiry marker: pending records replay before the epoch's
				// fresh data, so this is canonical step 1.
				if old, ok := s.Since[pe.ID]; ok && old.DateTime+window <= t {
					delete(s.Since, pe.ID)
				}
				return
			}
			s.Since[pe.ID] = pe
			n.NotifyAt(t+window, core.Left[Person, Auction](Person{ID: pe.ID}))
			// Canonical step 2 before step 3: this epoch's earlier auctions.
			for _, a := range s.take(t, pe.ID) {
				emit(Q8Out{Person: pe.ID, Name: pe.Name, Auction: a})
			}
		}, nil)
	// END Q8 MEGAPHONE
}
