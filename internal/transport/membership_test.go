package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// TestLateJoinRetireLeave walks a transport-level membership lifecycle on a
// fixed 3-slot roster: slots 0 and 1 come up with slot 2 marked absent (no
// dial, no wait), slot 2 joins late by dialing both (including the
// lower-index direction the static rule forbids), frames flow to and from
// the joiner, slot 1 leaves one-sidedly via FinishLeave while the survivors
// Retire it, and the remaining pair still passes the full shutdown barrier.
func TestLateJoinRetireLeave(t *testing.T) {
	const n = 3
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	absent := []bool{false, false, true}

	var mu sync.Mutex
	got := map[[2]int]int{} // (from,to) -> frames received
	mk := func(to int) Handler {
		return func(from int, kind byte, payload []byte) {
			mu.Lock()
			got[[2]int{from, to}]++
			mu.Unlock()
		}
	}
	counted := func(from, to int) int {
		mu.Lock()
		defer mu.Unlock()
		return got[[2]int{from, to}]
	}

	// Slots 0 and 1 start without slot 2.
	ts := make([]*Transport, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = Dial(Config{
				Addrs: addrs, Index: i, Listener: lns[i],
				DialTimeout: 10 * time.Second, Absent: absent,
			}, mk(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("process %d: %v", i, errs[i])
		}
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], 1)
	ts[0].Send(1, KindUser, b[:])
	ts[1].Send(0, KindUser, b[:])

	// Slot 2 joins: its own slot is marked absent, so it dials everyone.
	var err error
	ts[2], err = Dial(Config{
		Addrs: addrs, Index: 2, Listener: lns[2],
		DialTimeout: 10 * time.Second, Absent: absent,
	}, mk(2))
	if err != nil {
		t.Fatalf("joiner: %v", err)
	}
	for _, pair := range [][2]int{{2, 0}, {2, 1}, {0, 2}, {1, 2}} {
		ts[pair[0]].Send(pair[1], KindUser, b[:])
	}
	deadline := time.Now().Add(5 * time.Second)
	for counted(2, 0) == 0 || counted(2, 1) == 0 || counted(0, 2) == 0 || counted(1, 2) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("frames to/from joiner not delivered: %v", got)
		}
		time.Sleep(time.Millisecond)
	}

	// Slot 1 drain-leaves: survivors retire it, it FINs out one-sidedly.
	var leaveErr error
	var leaveWG sync.WaitGroup
	leaveWG.Add(1)
	go func() {
		defer leaveWG.Done()
		leaveErr = ts[1].FinishLeave(10 * time.Second)
	}()
	leaveWG.Wait()
	if leaveErr != nil {
		t.Fatalf("FinishLeave: %v", leaveErr)
	}
	ts[0].Retire(1)
	ts[2].Retire(1)
	for _, tr := range []*Transport{ts[0], ts[2]} {
		p := tr.peers[1]
		p.mu.Lock()
		isRetired := p.state == retired
		p.mu.Unlock()
		if !isRetired {
			t.Fatal("peer 1 not marked retired")
		}
	}
	ts[0].Send(1, KindUser, b[:]) // must be dropped, not panic or wedge

	// The surviving pair still shuts down cleanly.
	finishAll(t, []*Transport{ts[0], ts[2]})
}

// TestRetireStopsRedial pins crash-leave at the transport layer: when a
// peer dies abruptly, the dialing side's reconnect loop must stand down on
// Retire instead of panicking at DialTimeout, and the shutdown barrier must
// release without the dead peer's FIN.
func TestRetireStopsRedial(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ts := make([]*Transport, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = Dial(Config{
				Addrs: addrs, Index: i, Listener: lns[i],
				// Long enough that a leaked redial would still be running
				// when the test asserts, short enough not to stall CI if the
				// barrier regresses.
				DialTimeout: 8 * time.Second,
			}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}

	ts[0].Close() // the "crash": listener and connections die
	ts[1].Retire(0)
	if err := ts[1].Finish(5 * time.Second); err != nil {
		t.Fatalf("survivor barrier did not release after Retire: %v", err)
	}
}
