// Package freelist is the engine's one retention rule for recycled buffers:
// a free list keeps what recent demand used, not its all-time high-water
// mark. The worker's batch-envelope pools, the transport sessions' frame
// payload pools and the mesh's encode scratch all ride it.
//
// The rule is ageing by use over two generations, like sync.Pool's victim
// cache, but the clock is the owner's own — a worker trims every so many
// schedulings, a session every ack round — not the garbage collector's. A
// GC-driven pool trims one cycle too late: the collection that runs at the
// end of a burst still marks the whole burst live and doubles the heap goal
// over it. Trim drops
//
//   - by count: entries nothing took during the last two intervals (a LIFO
//     list keeps them at the bottom, so the fewest entries seen free in an
//     interval is how many sat untouched through it), and
//   - by size: Put refuses a buffer whose capacity is more than twice the
//     largest size put back during the current and previous interval, so a
//     burst-sized buffer does not live on carrying steady-state batches.
//
// Steady-state buffers are taken every interval and never age out; a burst's
// buffers are gone two intervals after it ends. Nothing here is safe for
// concurrent use: each list belongs to one goroutine or sits under its
// owner's lock. Only the retained-bytes counter may be read from elsewhere.
package freelist

import "sync/atomic"

// demand remembers the largest size used in the current and the previous
// interval.
type demand struct{ cur, prev int }

// note records one use of n bytes.
//
//megalint:hotpath
func (d *demand) note(n int) {
	if n > d.cur {
		d.cur = n
	}
}

// oversized reports whether a buffer of the given capacity is more than
// twice what the last two intervals used.
//
//megalint:hotpath
func (d *demand) oversized(capacity int) bool {
	return capacity > 2*max(d.cur, d.prev)
}

// roll ends the interval.
func (d *demand) roll() { d.prev, d.cur = d.cur, 0 }

type entry[E any] struct {
	e     E
	bytes int
}

// List is a LIFO free list of E under the retention rule. Sizes are the
// caller's (a List never looks inside an E), in bytes.
type List[E any] struct {
	free     []entry[E]
	low      int // fewest entries free at any point of the current interval
	victims  int // bottom entries that also sat untouched through the previous one
	demand   demand
	retained *atomic.Int64
}

// New returns an empty list that accounts the bytes it holds in retained,
// which several lists may share. The zero List works too and accounts
// nothing.
func New[E any](retained *atomic.Int64) List[E] {
	return List[E]{retained: retained}
}

//megalint:hotpath
func (l *List[E]) account(bytes int) {
	if l.retained != nil {
		l.retained.Add(int64(bytes))
	}
}

// Get pops the most recently returned entry.
//
//megalint:hotpath
func (l *List[E]) Get() (e E, ok bool) {
	last := len(l.free) - 1
	if last < 0 {
		return e, false
	}
	ent := l.free[last]
	l.free[last] = entry[E]{}
	l.free = l.free[:last]
	if last < l.low {
		l.low = last
	}
	l.account(-ent.bytes)
	return ent.e, true
}

// Put returns e, of which used bytes out of capacity were in use, to the
// list — or leaves it to the garbage collector when it is oversized for
// recent demand.
//
//megalint:hotpath
func (l *List[E]) Put(e E, used, capacity int) {
	l.demand.note(used)
	if l.demand.oversized(capacity) {
		return
	}
	l.free = append(l.free, entry[E]{e: e, bytes: capacity})
	l.account(capacity)
}

// Trim ends an interval: entries that sat untouched through this interval
// and the previous one are dropped, those untouched through this one alone
// become the next Trim's candidates.
func (l *List[E]) Trim() {
	drop := min(l.victims, l.low)
	for _, ent := range l.free[:drop] {
		l.account(-ent.bytes)
	}
	n := copy(l.free, l.free[drop:])
	clear(l.free[n:])
	l.free = l.free[:n]
	l.victims = l.low - drop
	l.low = n
	l.demand.roll()
}

// Len is the number of entries free.
func (l *List[E]) Len() int { return len(l.free) }

// Buf is one reusable scratch buffer under the size half of the rule: the
// owner appends into B, notes how much each use filled, and Trim drops a
// buffer that recent uses would fit in twice over.
type Buf struct {
	B      []byte
	demand demand
}

// Note records that a use filled n bytes of B.
//
//megalint:hotpath
func (s *Buf) Note(n int) { s.demand.note(n) }

// Trim ends an interval and reports the capacity still held.
func (s *Buf) Trim() int {
	if s.demand.oversized(cap(s.B)) {
		s.B = nil
	}
	s.demand.roll()
	return cap(s.B)
}
