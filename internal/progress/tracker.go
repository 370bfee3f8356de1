package progress

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"megaphone/internal/timestamp"
)

// Time is the logical timestamp used on the runtime's hot path. The runtime
// is specialized to totally ordered Scalar times (all Megaphone evaluation
// workloads use integer event times); the general partially ordered frontier
// machinery lives in internal/timestamp.
type Time = timestamp.Scalar

// None is the frontier value of a completed port: no timestamps can arrive.
const None = timestamp.MaxScalar

// CountDelta records a change to the pointstamp count at a location.
type CountDelta struct {
	Loc   Location
	Time  Time
	Delta int
}

// Batch is a set of count changes applied atomically. A worker step bundles
// the -1s for messages it consumed with the +1s for the messages and
// capability changes that consumption produced, so no observer can see the
// consumption without its consequences.
type Batch struct {
	Deltas []CountDelta
}

// Add appends a delta to the batch.
func (b *Batch) Add(loc Location, t Time, delta int) {
	b.Deltas = append(b.Deltas, CountDelta{Loc: loc, Time: t, Delta: delta})
}

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.Deltas = b.Deltas[:0] }

func deltaBefore(a, b CountDelta) bool {
	return a.Loc < b.Loc || (a.Loc == b.Loc && a.Time < b.Time)
}

// coalesce merges deltas with the same (location, time) and drops the ones
// that cancel, in place. A scheduling's batch routinely contains such pairs
// (a hold moved and moved back, one +1 per peer on the same edge and time),
// and merging them before the lock shrinks the critical section. Operators
// emit deltas grouped by location in ascending time order, so the batch is
// usually already sorted and the sort is skipped.
func (b *Batch) coalesce() {
	d := b.Deltas
	if len(d) < 2 {
		return
	}
	for i := 1; i < len(d); i++ {
		if deltaBefore(d[i], d[i-1]) {
			slices.SortFunc(d, func(a, b CountDelta) int {
				switch {
				case deltaBefore(a, b):
					return -1
				case deltaBefore(b, a):
					return 1
				}
				return 0
			})
			break
		}
	}
	out := d[:0]
	for _, dd := range d {
		if n := len(out); n > 0 && out[n-1].Loc == dd.Loc && out[n-1].Time == dd.Time {
			out[n-1].Delta += dd.Delta
			if out[n-1].Delta == 0 {
				out = out[:n-1]
			}
			continue
		}
		out = append(out, dd)
	}
	b.Deltas = out
}

// timeCount is one entry of a multiset: a live time and its occurrence count.
type timeCount struct {
	t Time
	n int
}

// multiset tracks occurrence counts of totally ordered times as a slice
// sorted ascending by time, with a dead prefix of length head: the live
// entries are entries[head:] and the minimum is entries[head]. Hot-path
// updates touch the ends — consumption retires the head in O(1), production
// appends just past the tail — so a deep backlog of live times (a saturated
// input staging thousands of epochs) costs O(1) amortized per update,
// unlike the map-based variant this replaces, whose minimum removal
// rescanned every live time.
//
// In a multi-process execution (negOK mode, see
// Tracker.TolerateNegativeCounts) counts can dip below zero transiently: a
// third process may apply worker B's "consumed the message" delta before
// worker A's "produced it" delta, because the two arrive on different
// connections. Negative entries are retained (they keep the location live,
// which the termination check needs) but a location's minimum considers
// only positive counts — the matching production is guaranteed to be
// counted at some upstream location, so frontiers remain conservative
// (the Naiad progress-protocol argument; see DESIGN.md).
type multiset struct {
	entries []timeCount
	head    int
}

func (m *multiset) min() Time {
	// In single-process mode every live entry is positive and this returns
	// entries[head].t on the first iteration; negative entries exist only
	// transiently under cross-process delta reordering.
	for i := m.head; i < len(m.entries); i++ {
		if m.entries[i].n > 0 {
			return m.entries[i].t
		}
	}
	return None
}

func (m *multiset) empty() bool { return m.head == len(m.entries) }

// update applies a count delta for time t and reports whether the multiset's
// minimum changed. negOK tolerates transiently negative counts (required
// for multi-process executions); without it a negative count panics, as it
// can only mean an accounting bug. In negOK mode the positional heuristics
// of applyDelta no longer determine the minimum (nonpositive entries are
// skipped by min), so the minimum is compared directly around the change.
func (m *multiset) update(t Time, delta int, negOK bool) (minChanged bool) {
	if negOK {
		oldMin := m.min()
		m.applyDelta(t, delta, true)
		return m.min() != oldMin
	}
	return m.applyDelta(t, delta, false)
}

// applyDelta mutates the multiset and reports whether the minimum changed
// under the single-process invariant that all counts stay positive (the
// return value is positional and meaningless when negOK allowed a negative
// entry — update recomputes it in that mode).
func (m *multiset) applyDelta(t Time, delta int, negOK bool) (minChanged bool) {
	e := m.entries
	// Fast paths: the head (consuming at the frontier) and the tail
	// (producing just past it) cover nearly all hot-path updates.
	i := m.head
	switch {
	case len(e) > m.head && e[m.head].t == t:
	case len(e) == m.head || e[len(e)-1].t < t:
		i = len(e)
	default:
		i = m.head + sort.Search(len(e)-m.head, func(k int) bool { return e[m.head+k].t >= t })
	}
	if i < len(e) && e[i].t == t {
		e[i].n += delta
		switch {
		case e[i].n < 0 && !negOK:
			panic(fmt.Sprintf("progress: count for time %v went negative", t))
		case e[i].n == 0:
			if i == m.head {
				m.head++
				// Reclaim the dead prefix once it dominates the slice.
				if m.head > 32 && m.head > len(e)/2 {
					m.entries = e[:copy(e, e[m.head:])]
					m.head = 0
				}
				return true
			}
			copy(e[i:], e[i+1:])
			m.entries = e[:len(e)-1]
			return false
		}
		return false
	}
	if delta == 0 {
		return false
	}
	if delta < 0 && !negOK {
		panic(fmt.Sprintf("progress: count for time %v went negative", t))
	}
	if m.head > 0 && i == m.head {
		// Insert just before the live head: reuse a dead slot.
		m.head--
		e[m.head] = timeCount{t: t, n: delta}
		return true
	}
	m.entries = append(e, timeCount{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = timeCount{t: t, n: delta}
	return i == m.head
}

// Tracker holds the live pointstamp counts for a frozen dataflow graph and
// answers frontier queries per input port. All methods are safe for
// concurrent use by multiple workers.
//
// Workers observe progress without the lock: version counts effective
// applies, live counts locations with pointstamps (zero means the
// computation is done), and portEpochs[i] is bumped whenever the frontier of
// input port i may have moved. All three are written under mu and read
// atomically, so the scheduler's idle checks and dirty-set sweeps cost no
// lock acquisitions.
type Tracker struct {
	mu       sync.Mutex
	locs     []multiset
	upstream map[Port][]Location
	edgeLoc  func(Edge) Location
	capLoc   func(Port) Location
	waiters  []chan<- struct{}

	version atomic.Uint64 // bumped by every effective Apply
	live    atomic.Int64  // number of locations with live pointstamps

	portIDs    map[Port]int // dense input-port index
	portEpochs []atomic.Uint64
	deps       [][]int32 // location -> dense ports whose frontier it feeds

	nodeNames []string

	negOK bool // tolerate transiently negative counts (multi-process mode)
}

// TolerateNegativeCounts switches the tracker into multi-process mode:
// count deltas from remote workers may be applied in an order where a
// message's consumption lands before its production, so per-(location,
// time) counts can dip below zero transiently. Negative entries keep their
// location live (termination stays exact) and are excluded from frontier
// minima (frontiers stay conservative). Call before the execution starts.
func (t *Tracker) TolerateNegativeCounts() {
	t.mu.Lock()
	t.negOK = true
	t.mu.Unlock()
}

// Build freezes the graph and returns its tracker.
func (b *GraphBuilder) Build() *Tracker {
	edgeLoc, capLoc, total := b.locations()
	t := &Tracker{
		locs:     make([]multiset, total),
		upstream: b.reachability(),
		edgeLoc:  edgeLoc,
		capLoc:   capLoc,
		portIDs:  make(map[Port]int),
		deps:     make([][]int32, total),
	}
	for p := range t.upstream {
		t.portIDs[p] = 0
	}
	// Dense ids in a deterministic order (node, then port).
	ports := make([]Port, 0, len(t.portIDs))
	for p := range t.portIDs {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool {
		if ports[i].Node != ports[j].Node {
			return ports[i].Node < ports[j].Node
		}
		return ports[i].Port < ports[j].Port
	})
	t.portEpochs = make([]atomic.Uint64, len(ports))
	for i, p := range ports {
		t.portIDs[p] = i
		for _, loc := range t.upstream[p] {
			t.deps[loc] = append(t.deps[loc], int32(i))
		}
	}
	for _, n := range b.nodes {
		t.nodeNames = append(t.nodeNames, n.name)
	}
	return t
}

// EdgeLocation returns the location of an edge.
func (t *Tracker) EdgeLocation(e Edge) Location { return t.edgeLoc(e) }

// CapLocation returns the capability location of a node output port.
func (t *Tracker) CapLocation(p Port) Location { return t.capLoc(p) }

// PortID returns the dense index of a node input port, for use with
// PortEpoch. It panics if p is not an input port of the graph.
func (t *Tracker) PortID(p Port) int {
	id, ok := t.portIDs[p]
	if !ok {
		panic(fmt.Sprintf("progress: no input port %v", p))
	}
	return id
}

// PortEpoch returns a counter bumped whenever the frontier at the port may
// have changed. Workers compare epochs against remembered values to detect
// "frontier moved for this port" without locking or recomputing frontiers.
func (t *Tracker) PortEpoch(id int) uint64 { return t.portEpochs[id].Load() }

// Apply atomically applies a batch of count changes and wakes any frontier
// waiters. Deltas that cancel within the batch are dropped first; an empty
// or fully cancelling batch costs no lock acquisition.
func (t *Tracker) Apply(b *Batch) {
	b.coalesce()
	if len(b.Deltas) == 0 {
		return
	}
	t.mu.Lock()
	liveDelta := int64(0)
	for _, d := range b.Deltas {
		ms := &t.locs[d.Loc]
		wasEmpty := ms.empty()
		minChanged := ms.update(d.Time, d.Delta, t.negOK)
		if minChanged {
			for _, pid := range t.deps[d.Loc] {
				t.portEpochs[pid].Add(1)
			}
		}
		if isEmpty := ms.empty(); wasEmpty != isEmpty {
			if wasEmpty {
				liveDelta++
			} else {
				liveDelta--
			}
		}
	}
	if liveDelta != 0 {
		t.live.Add(liveDelta)
	}
	t.version.Add(1)
	// Poke registered waiters under the lock (non-blocking sends into
	// latched channels, so this cannot stall) and keep the list's backing
	// array for reuse. Waiters exist only while workers are parking, so
	// steady-state applies skip this entirely.
	for _, w := range t.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	t.waiters = t.waiters[:0]
	t.mu.Unlock()
}

// ResetCounts atomically replaces the tracker's entire pointstamp multiset
// with the contents of b, as if the tracker were freshly built and b were
// its first Apply. This is the crash-leave recovery primitive: after a
// member is declared dead, the global multiset contains its unretired
// pointstamps (productions whose consumptions died with it, and vice
// versa), which no surviving worker can ever retire — the frontier would
// wedge forever. The survivors instead exchange their local hold
// inventories (op capability holds and input capabilities — at agreed
// quiescence nothing else is genuinely outstanding), sum them identically,
// and each rebuilds its tracker from that consistent picture. All port
// epochs are bumped and waiters woken, since any frontier may have moved.
func (t *Tracker) ResetCounts(b *Batch) {
	b.coalesce()
	t.mu.Lock()
	for i := range t.locs {
		t.locs[i] = multiset{}
	}
	for _, d := range b.Deltas {
		t.locs[d.Loc].update(d.Time, d.Delta, t.negOK)
	}
	live := int64(0)
	for i := range t.locs {
		if !t.locs[i].empty() {
			live++
		}
	}
	t.live.Store(live)
	for i := range t.portEpochs {
		t.portEpochs[i].Add(1)
	}
	t.version.Add(1)
	for _, w := range t.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	t.waiters = t.waiters[:0]
	t.mu.Unlock()
}

// Frontier returns the least timestamp that may still arrive at the given
// node input port, or None if no more messages can arrive there.
func (t *Tracker) Frontier(p Port) Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frontierLocked(p)
}

func (t *Tracker) frontierLocked(p Port) Time {
	min := None
	for _, loc := range t.upstream[p] {
		if m := t.locs[loc].min(); m < min {
			min = m
		}
	}
	return min
}

// Frontiers returns the frontier of every input port of node n, for a node
// with the given number of inputs.
func (t *Tracker) Frontiers(n Node, inputs int, out []Time) []Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	out = out[:0]
	for i := 0; i < inputs; i++ {
		out = append(out, t.frontierLocked(Port{Node: n, Port: i}))
	}
	return out
}

// Idle reports whether no pointstamps remain anywhere in the graph, i.e. the
// computation has completed. Lock-free.
func (t *Tracker) Idle() bool { return t.live.Load() == 0 }

// Snapshot returns the version and idleness in one lock-free read, for the
// worker run loop's park/exit decision.
func (t *Tracker) Snapshot() (version uint64, idle bool) {
	return t.version.Load(), t.live.Load() == 0
}

// Dump renders the live pointstamps for debugging: every location with
// counts, labelled with its index, in deterministic (location, time) order.
//
//megalint:allow unreached test support: progress and dataflow scheduling tests print it on failure
func (t *Tracker) Dump() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	for i, m := range t.locs {
		if m.empty() {
			continue
		}
		fmt.Fprintf(&sb, "loc %d:", i)
		for _, e := range m.entries[m.head:] {
			fmt.Fprintf(&sb, " %v:%d", e.t, e.n)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Notify registers ch to receive one non-blocking signal at the next
// effective Apply; callers park on ch until progress is possible. The
// channel must be buffered (it acts as a latch: a signal arriving before
// the caller blocks is retained) and is owned by the caller, so parking
// allocates nothing. Registration is consumed by the next effective Apply;
// re-register before every park.
func (t *Tracker) Notify(ch chan<- struct{}) {
	t.mu.Lock()
	t.waiters = append(t.waiters, ch)
	t.mu.Unlock()
}
