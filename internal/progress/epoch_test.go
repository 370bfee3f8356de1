package progress

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chain builds a two-node pipeline (src -> dst) and returns the tracker and
// the interesting locations: the edge into dst and src's capability.
func chain(t *testing.T) (tr *Tracker, edge Location, cap Location, dst Port) {
	t.Helper()
	b := NewGraphBuilder()
	src := b.AddNode("src", 0, 1)
	d := b.AddNode("dst", 1, 0)
	e := b.AddEdge(Port{Node: src, Port: 0}, Port{Node: d, Port: 0})
	tr = b.Build()
	return tr, tr.EdgeLocation(e), tr.CapLocation(Port{Node: src, Port: 0}), Port{Node: d, Port: 0}
}

// TestPortEpochBumpsOnlyOnMinChange verifies the dirty-set contract: the
// port epoch moves exactly when the frontier at the port may have moved.
func TestPortEpochBumpsOnlyOnMinChange(t *testing.T) {
	tr, edge, _, dst := chain(t)
	id := tr.PortID(dst)

	apply := func(tm Time, d int) {
		var b Batch
		b.Add(edge, tm, d)
		tr.Apply(&b)
	}

	e0 := tr.PortEpoch(id)
	apply(5, 1) // empty -> {5}: min changed
	if tr.PortEpoch(id) == e0 {
		t.Fatalf("epoch did not move when min appeared")
	}
	e1 := tr.PortEpoch(id)
	apply(7, 1) // {5} -> {5,7}: min unchanged
	if tr.PortEpoch(id) != e1 {
		t.Fatalf("epoch moved on non-min insert")
	}
	apply(5, 1) // second count at the min: min unchanged
	if tr.PortEpoch(id) != e1 {
		t.Fatalf("epoch moved on count increment at min")
	}
	apply(5, -1) // one of two counts at 5 drops: min unchanged
	if tr.PortEpoch(id) != e1 {
		t.Fatalf("epoch moved while min count remained")
	}
	apply(5, -1) // min retired: frontier moves to 7
	if tr.PortEpoch(id) == e1 {
		t.Fatalf("epoch did not move when min retired")
	}
	if got := tr.Frontier(dst); got != 7 {
		t.Fatalf("frontier = %v, want 7", got)
	}
}

// TestApplyCoalesces verifies that cancelling deltas are dropped before the
// lock: a net-zero batch is not an effective apply and must not bump the
// version (workers would otherwise wake for nothing).
func TestApplyCoalesces(t *testing.T) {
	tr, edge, cap, _ := chain(t)

	var b Batch
	b.Add(edge, 3, 1)
	b.Add(edge, 3, -1)
	b.Add(cap, 9, 1)
	b.Add(cap, 9, -1)
	v := tr.version.Load()
	tr.Apply(&b)
	if tr.version.Load() != v {
		t.Fatalf("net-zero batch bumped the version")
	}
	if !tr.Idle() {
		t.Fatalf("net-zero batch left live pointstamps:\n%s", tr.Dump())
	}

	// A transiently negative pair (the -1 before the +1) must also cancel
	// rather than panic: the batch is atomic, order within it is arbitrary.
	b.Reset()
	b.Add(edge, 4, -1)
	b.Add(edge, 4, 1)
	tr.Apply(&b)
	if !tr.Idle() {
		t.Fatalf("cancelling pair left live pointstamps")
	}
}

// TestMultisetMatchesReference drives one multiset with random updates and
// checks min/emptiness against a map reference.
func TestMultisetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m multiset
	ref := map[Time]int{}
	refMin := func() Time {
		min := None
		for tm := range ref {
			if tm < min {
				min = tm
			}
		}
		return min
	}
	for i := 0; i < 200000; i++ {
		tm := Time(rng.Intn(64))
		if c := ref[tm]; c > 0 && rng.Intn(2) == 0 {
			m.update(tm, -1, false)
			if c == 1 {
				delete(ref, tm)
			} else {
				ref[tm] = c - 1
			}
		} else {
			m.update(tm, 1, false)
			ref[tm]++
		}
		if m.min() != refMin() {
			t.Fatalf("step %d: min = %v, want %v", i, m.min(), refMin())
		}
		if m.empty() != (len(ref) == 0) {
			t.Fatalf("step %d: empty = %v, want %v", i, m.empty(), len(ref) == 0)
		}
	}
}

// TestDumpDeterministic verifies Dump output is stable across calls (sorted
// locations and times), so test failures can diff it.
func TestDumpDeterministic(t *testing.T) {
	tr, edge, cap, _ := chain(t)
	var b Batch
	for i := 0; i < 20; i++ {
		b.Add(edge, Time(19-i), 1)
		b.Add(cap, Time(i%5), 1)
	}
	tr.Apply(&b)
	// Retire the minimum a few times: the multisets' dead prefixes must not
	// surface as zero-count entries.
	for i := 0; i < 3; i++ {
		b.Reset()
		b.Add(edge, Time(i), -1)
		tr.Apply(&b)
	}
	d := tr.Dump()
	if strings.Contains(d, ":0") {
		t.Fatalf("Dump shows retired (zero-count) times:\n%s", d)
	}
	for i := 0; i < 5; i++ {
		if tr.Dump() != d {
			t.Fatalf("Dump not deterministic")
		}
	}
	if !strings.Contains(d, fmt.Sprintf("loc %d:", edge)) {
		t.Fatalf("Dump missing edge location:\n%s", d)
	}
	// Times within a location must be ascending.
	for _, line := range strings.Split(strings.TrimSpace(d), "\n") {
		fields := strings.Fields(line)[2:]
		prev := -1
		for _, f := range fields {
			var tm, n int
			if _, err := fmt.Sscanf(f, "%d:%d", &tm, &n); err != nil {
				t.Fatalf("unparseable entry %q in %q", f, line)
			}
			if tm <= prev {
				t.Fatalf("times not ascending in %q", line)
			}
			prev = tm
		}
	}
}

// TestApplySteadyZeroAlloc pins BenchmarkApplySteady's pattern at 0
// allocations per Apply.
func TestApplySteadyZeroAlloc(t *testing.T) {
	if r := testing.Benchmark(BenchmarkApplySteady); r.N == 0 || r.AllocsPerOp() != 0 {
		t.Fatalf("steady tracker Apply: %d allocs/op over %d ops, want 0", r.AllocsPerOp(), r.N)
	}
}

// BenchmarkApplySteady measures the tracker's per-batch cost in the steady
// pattern one scheduling produces: consume at one time, produce at the next.
func BenchmarkApplySteady(b *testing.B) {
	gb := NewGraphBuilder()
	src := gb.AddNode("src", 0, 1)
	dst := gb.AddNode("dst", 1, 0)
	e := gb.AddEdge(Port{Node: src, Port: 0}, Port{Node: dst, Port: 0})
	tr := gb.Build()
	loc := tr.EdgeLocation(e)

	var batch Batch
	batch.Add(loc, 0, 1)
	tr.Apply(&batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		batch.Add(loc, Time(i), -1)
		batch.Add(loc, Time(i+1), 1)
		tr.Apply(&batch)
	}
}
