package progress

import (
	"math/rand"
	"sync"
	"testing"
)

// linearGraph builds in -> mid -> out and returns the tracker plus the
// interesting ports and edges.
func linearGraph() (*Tracker, Port, Port, Edge, Edge) {
	b := NewGraphBuilder()
	in := b.AddNode("in", 0, 1)
	mid := b.AddNode("mid", 1, 1)
	out := b.AddNode("out", 1, 0)
	e1 := b.AddEdge(Port{in, 0}, Port{mid, 0})
	e2 := b.AddEdge(Port{mid, 0}, Port{out, 0})
	return b.Build(), Port{mid, 0}, Port{out, 0}, e1, e2
}

// TestFrontierFollowsCapability: the downstream frontier is the source's
// capability hold until messages appear.
func TestFrontierFollowsCapability(t *testing.T) {
	tr, midIn, outIn, _, _ := linearGraph()
	if f := tr.Frontier(midIn); f != None {
		t.Fatalf("empty graph frontier = %v, want None", f)
	}
	var b Batch
	srcCap := tr.CapLocation(Port{0, 0})
	b.Add(srcCap, 5, 1)
	tr.Apply(&b)
	if f := tr.Frontier(midIn); f != 5 {
		t.Fatalf("frontier = %v, want 5", f)
	}
	if f := tr.Frontier(outIn); f != 5 {
		t.Fatalf("downstream frontier = %v, want 5", f)
	}
	// Downgrade the hold.
	b.Reset()
	b.Add(srcCap, 5, -1)
	b.Add(srcCap, 9, 1)
	tr.Apply(&b)
	if f := tr.Frontier(outIn); f != 9 {
		t.Fatalf("after downgrade frontier = %v, want 9", f)
	}
}

// TestMessagesHoldFrontier: a message in flight pins the frontier at its
// time even if the capability has advanced.
func TestMessagesHoldFrontier(t *testing.T) {
	tr, midIn, outIn, e1, e2 := linearGraph()
	var b Batch
	srcCap := tr.CapLocation(Port{0, 0})
	b.Add(srcCap, 3, 1)
	tr.Apply(&b)

	// Send a message at 3, advance the cap to 10.
	b.Reset()
	b.Add(tr.EdgeLocation(e1), 3, 1)
	b.Add(srcCap, 3, -1)
	b.Add(srcCap, 10, 1)
	tr.Apply(&b)
	if f := tr.Frontier(midIn); f != 3 {
		t.Fatalf("frontier = %v, want 3 (message in flight)", f)
	}
	// mid consumes it and forwards at 3 in one atomic batch.
	b.Reset()
	b.Add(tr.EdgeLocation(e1), 3, -1)
	b.Add(tr.EdgeLocation(e2), 3, 1)
	tr.Apply(&b)
	if f := tr.Frontier(midIn); f != 10 {
		t.Fatalf("mid frontier = %v, want 10", f)
	}
	if f := tr.Frontier(outIn); f != 3 {
		t.Fatalf("out frontier = %v, want 3", f)
	}
	// out consumes; only the cap remains.
	b.Reset()
	b.Add(tr.EdgeLocation(e2), 3, -1)
	tr.Apply(&b)
	if f := tr.Frontier(outIn); f != 10 {
		t.Fatalf("out frontier = %v, want 10", f)
	}
	if tr.Idle() {
		t.Fatal("tracker idle with a live capability")
	}
	b.Reset()
	b.Add(srcCap, 10, -1)
	tr.Apply(&b)
	if !tr.Idle() {
		t.Fatal("tracker not idle after draining")
	}
}

// TestDiamondReachability: with two paths a frontier reflects both.
func TestDiamondReachability(t *testing.T) {
	b := NewGraphBuilder()
	src := b.AddNode("src", 0, 2)
	l := b.AddNode("left", 1, 1)
	r := b.AddNode("right", 1, 1)
	sink := b.AddNode("sink", 2, 0)
	b.AddEdge(Port{src, 0}, Port{l, 0})
	b.AddEdge(Port{src, 1}, Port{r, 0})
	eL := b.AddEdge(Port{l, 0}, Port{sink, 0})
	eR := b.AddEdge(Port{r, 0}, Port{sink, 1})
	tr := b.Build()

	var batch Batch
	batch.Add(tr.CapLocation(Port{src, 0}), 4, 1)
	batch.Add(tr.CapLocation(Port{src, 1}), 7, 1)
	tr.Apply(&batch)

	if f := tr.Frontier(Port{sink, 0}); f != 4 {
		t.Fatalf("sink.0 frontier = %v, want 4", f)
	}
	if f := tr.Frontier(Port{sink, 1}); f != 7 {
		t.Fatalf("sink.1 frontier = %v, want 7", f)
	}
	// A message on the left edge at 2 (covered by a left-op hold) only
	// affects sink input 0.
	batch.Reset()
	batch.Add(tr.CapLocation(Port{l, 0}), 2, 1)
	batch.Add(tr.EdgeLocation(eL), 2, 1)
	tr.Apply(&batch)
	if f := tr.Frontier(Port{sink, 0}); f != 2 {
		t.Fatalf("sink.0 frontier = %v, want 2", f)
	}
	if f := tr.Frontier(Port{sink, 1}); f != 7 {
		t.Fatalf("sink.1 frontier = %v, want 7", f)
	}
	_ = eR
}

// TestSafetyRandomized: under random but well-formed batches (consumption
// bundled with its productions), the frontier at a downstream port never
// exceeds the minimum live pointstamp that can reach it.
func TestSafetyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewGraphBuilder()
	src := b.AddNode("src", 0, 1)
	mid := b.AddNode("mid", 1, 1)
	sink := b.AddNode("sink", 1, 0)
	e1 := b.AddEdge(Port{src, 0}, Port{mid, 0})
	e2 := b.AddEdge(Port{mid, 0}, Port{sink, 0})
	tr := b.Build()

	type ps struct {
		loc  Location
		time Time
	}
	live := map[ps]int{}
	apply := func(batch *Batch) {
		for _, d := range batch.Deltas {
			live[ps{d.Loc, d.Time}] += d.Delta
			if live[ps{d.Loc, d.Time}] == 0 {
				delete(live, ps{d.Loc, d.Time})
			}
		}
		tr.Apply(batch)
	}

	capSrc := tr.CapLocation(Port{src, 0})
	var batch Batch
	batch.Add(capSrc, 0, 1)
	apply(&batch)
	epoch := Time(0)
	inflight1 := []Time{}
	inflight2 := []Time{}

	for step := 0; step < 3000; step++ {
		batch.Reset()
		switch rng.Intn(4) {
		case 0: // src sends at current epoch
			batch.Add(tr.EdgeLocation(e1), epoch, 1)
			inflight1 = append(inflight1, epoch)
		case 1: // src advances epoch
			batch.Add(capSrc, epoch, -1)
			epoch++
			batch.Add(capSrc, epoch, 1)
		case 2: // mid consumes one and forwards it
			if len(inflight1) > 0 {
				tm := inflight1[0]
				inflight1 = inflight1[1:]
				batch.Add(tr.EdgeLocation(e1), tm, -1)
				batch.Add(tr.EdgeLocation(e2), tm, 1)
				inflight2 = append(inflight2, tm)
			}
		case 3: // sink consumes
			if len(inflight2) > 0 {
				tm := inflight2[0]
				inflight2 = inflight2[1:]
				batch.Add(tr.EdgeLocation(e2), tm, -1)
			}
		}
		apply(&batch)

		// Safety: frontier(sink) <= any live pointstamp reaching the sink.
		f := tr.Frontier(Port{sink, 0})
		for p, c := range live {
			if c <= 0 {
				continue
			}
			if f > p.time {
				t.Fatalf("step %d: frontier %v passed live pointstamp %v at loc %d", step, f, p.time, p.loc)
			}
		}
	}
}

// TestConcurrentApply hammers Apply and Frontier from multiple goroutines
// (the race detector validates synchronization).
func TestConcurrentApply(t *testing.T) {
	tr, midIn, _, e1, _ := linearGraph()
	var wg sync.WaitGroup
	srcCap := tr.CapLocation(Port{0, 0})
	var init Batch
	init.Add(srcCap, 0, 1)
	tr.Apply(&init)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b Batch
			for i := 0; i < 1000; i++ {
				b.Reset()
				b.Add(tr.EdgeLocation(e1), Time(i), 1)
				tr.Apply(&b)
				_ = tr.Frontier(midIn)
				b.Reset()
				b.Add(tr.EdgeLocation(e1), Time(i), -1)
				tr.Apply(&b)
			}
		}(g)
	}
	wg.Wait()
	var b Batch
	b.Add(srcCap, 0, -1)
	tr.Apply(&b)
	if !tr.Idle() {
		t.Fatal("not idle after concurrent churn")
	}
}

// TestResetCountsRebuildsMultiset: ResetCounts discards every existing
// pointstamp — including entries no survivor could ever retire, the
// crash-leave wedge — and installs exactly the supplied inventory, bumping
// version, liveness, and every port epoch.
func TestResetCountsRebuildsMultiset(t *testing.T) {
	tr, midIn, outIn, e1, _ := linearGraph()
	var b Batch
	srcCap := tr.CapLocation(Port{0, 0})
	// A "dead member's" orphaned message at 2 plus a legitimate hold at 5.
	b.Add(tr.EdgeLocation(e1), 2, 1)
	b.Add(srcCap, 5, 1)
	tr.Apply(&b)
	if f := tr.Frontier(midIn); f != 2 {
		t.Fatalf("frontier = %v, want 2 (orphan wedges it)", f)
	}
	v, pe := tr.version.Load(), tr.PortEpoch(tr.PortID(midIn))

	// Rebuild from an inventory holding only the capability at 5.
	var inv Batch
	inv.Add(srcCap, 5, 1)
	tr.ResetCounts(&inv)
	if f := tr.Frontier(midIn); f != 5 {
		t.Fatalf("rebuilt frontier = %v, want 5 (orphan gone)", f)
	}
	if f := tr.Frontier(outIn); f != 5 {
		t.Fatalf("rebuilt downstream frontier = %v, want 5", f)
	}
	if tr.Idle() {
		t.Fatal("rebuilt tracker idle with a live capability")
	}
	if tr.version.Load() == v {
		t.Fatal("ResetCounts did not bump version")
	}
	if tr.PortEpoch(tr.PortID(midIn)) == pe {
		t.Fatal("ResetCounts did not bump port epochs")
	}

	// An empty inventory means done.
	var empty Batch
	tr.ResetCounts(&empty)
	if !tr.Idle() {
		t.Fatal("tracker not idle after empty rebuild")
	}
}
