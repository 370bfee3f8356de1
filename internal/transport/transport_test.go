package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/freelist"
)

// newLocalCluster builds n transports over pre-bound loopback listeners (so
// tests never race on port reuse) and returns them with their handlers'
// shared collector.
func newLocalCluster(t *testing.T, n int, mk func(i int) Handler) []*Transport {
	t.Helper()
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
	ts := make([]*Transport, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = Dial(Config{
				Addrs:       addrs,
				Index:       i,
				Listener:    lns[i],
				DialTimeout: 10 * time.Second,
			}, mk(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	return ts
}

func TestClusterSendRecvFIFO(t *testing.T) {
	const n = 3
	const perPair = 500
	type rec struct{ from, to, i int }
	var mu sync.Mutex
	got := map[rec]bool{}
	lastSeen := map[[2]int]int{} // (from,to) -> last payload index, for FIFO
	violation := atomic.Bool{}

	mk := func(to int) Handler {
		return func(from int, kind byte, payload []byte) {
			i := int(binary.BigEndian.Uint64(payload))
			mu.Lock()
			key := [2]int{from, to}
			if prev, ok := lastSeen[key]; ok && i != prev+1 {
				violation.Store(true)
			}
			lastSeen[key] = i
			got[rec{from, to, i}] = true
			mu.Unlock()
		}
	}
	ts := newLocalCluster(t, n, mk)

	var wg sync.WaitGroup
	for i, tr := range ts {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			var b [8]byte
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				for k := 0; k < perPair; k++ {
					binary.BigEndian.PutUint64(b[:], uint64(k))
					tr.Send(j, KindUser, b[:])
				}
			}
		}(i, tr)
	}
	wg.Wait()
	finishAll(t, ts)
	if violation.Load() {
		t.Fatal("per-pair FIFO order violated")
	}
	want := n * (n - 1) * perPair
	if len(got) != want {
		t.Fatalf("delivered %d distinct frames, want %d", len(got), want)
	}
}

// TestReconnectMidStream kills the live TCP connection several times while
// a stream of numbered frames is in flight, and asserts every frame is
// delivered exactly once, in order, despite the replays.
func TestReconnectMidStream(t *testing.T) {
	const total = 4000
	var mu sync.Mutex
	var got []uint64

	done := make(chan struct{})
	mk := func(i int) Handler {
		if i != 0 {
			return nil
		}
		return func(from int, kind byte, payload []byte) {
			v := binary.BigEndian.Uint64(payload)
			mu.Lock()
			got = append(got, v)
			n := len(got)
			mu.Unlock()
			if n == total {
				close(done)
			}
		}
	}
	ts := newLocalCluster(t, 2, mk)
	sender, receiver := ts[1], ts[0]

	// Killer: periodically close whatever conn currently serves the pair,
	// on both endpoints, while the stream runs.
	stop := make(chan struct{})
	var killers sync.WaitGroup
	killers.Add(1)
	go func() {
		defer killers.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			tr := sender
			if k%2 == 1 {
				tr = receiver
			}
			for _, p := range tr.peers {
				if p == nil {
					continue
				}
				p.mu.Lock()
				if p.conn != nil {
					p.conn.c.Close()
				}
				p.mu.Unlock()
			}
		}
	}()

	var b [8]byte
	for i := 0; i < total; i++ {
		binary.BigEndian.PutUint64(b[:], uint64(i))
		sender.Send(0, KindUser, b[:])
		if i%97 == 0 {
			time.Sleep(200 * time.Microsecond) // keep kills landing mid-stream
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out with %d/%d frames delivered", n, total)
	}
	close(stop)
	killers.Wait()
	finishAll(t, ts)
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("frame %d carried %d: lost, duplicated or reordered delivery", i, v)
		}
	}
}

// TestSendAllocsPerFrame pins the transport send path's allocation bound:
// steady-state sends reuse pooled payload buffers, the queue backing array
// and the writer scratch, so the whole path (both endpoints included —
// AllocsPerRun counts process-wide) stays within a small constant per frame.
func TestSendAllocsPerFrame(t *testing.T) {
	var received atomic.Int64
	mk := func(i int) Handler {
		if i != 0 {
			return nil
		}
		return func(from int, kind byte, payload []byte) { received.Add(1) }
	}
	ts := newLocalCluster(t, 2, mk)
	defer finishAll(t, ts)
	sender := ts[1]
	payload := make([]byte, 256)

	// Warm the pools and the connection.
	var sent int64
	for i := 0; i < 2000; i++ {
		sender.Send(0, KindUser, payload)
		sent++
	}
	waitFor(t, func() bool { return received.Load() == sent })

	allocs := testing.AllocsPerRun(5000, func() {
		sender.Send(0, KindUser, payload)
		sent++
	})
	waitFor(t, func() bool { return received.Load() == sent })
	// The enqueue itself is allocation-free; the budget covers the sender,
	// receiver and ack goroutines that run concurrently with the measured
	// loop.
	if allocs > 4 {
		t.Fatalf("transport send path allocates %.2f objects/frame, want <= 4", allocs)
	}
}

// finishAll runs the shutdown barrier on every transport concurrently, the
// way real processes shut down (Finish is symmetric: each side waits for
// the others' FIN).
func finishAll(t *testing.T, ts []*Transport) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(ts))
	for i, tr := range ts {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			errs[i] = tr.Finish(20 * time.Second)
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOversizedSendFails pins the sender-side frame bound: an oversized Send
// must not panic the calling goroutine (it used to) but surface through the
// transport's fatal error path — the Fatal hook fires, Err reports the cause,
// and the shutdown barrier returns it instead of hanging.
func TestOversizedSendFails(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fatalCh := make(chan error, 1)
	var ts [2]*Transport
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Addrs: addrs, Index: i, Listener: lns[i], MaxFrame: 1 << 10, DialTimeout: 10 * time.Second}
			if i == 1 {
				cfg.Fatal = func(err error) { fatalCh <- err }
			}
			ts[i], _ = Dial(cfg, nil)
		}(i)
	}
	wg.Wait()
	defer ts[0].Close()
	defer ts[1].Close()
	ts[1].Send(0, KindUser, make([]byte, 1<<11))
	select {
	case err := <-fatalCh:
		var tooLarge ErrFrameTooLarge
		if !errors.As(err, &tooLarge) {
			t.Fatalf("Fatal hook got %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fatal hook never invoked for oversized Send")
	}
	if err := ts[1].Err(); err == nil {
		t.Fatal("Err() nil after oversized Send")
	}
	if err := ts[1].Finish(2 * time.Second); err == nil {
		t.Fatal("Finish returned nil on a transport killed by an oversized Send")
	}
}

// TestBatchReplayExactlyOnce drives receive directly with crafted
// coalesced frames, pinning the replay semantics deterministically: a full
// replay delivers nothing new but re-acks, a partially overlapping batch
// (replay re-coalesced differently after a reconnect) delivers only the
// unseen suffix, and a sequence gap inside a batch tears the connection down.
func TestBatchReplayExactlyOnce(t *testing.T) {
	var got []uint64
	tr := &Transport{cfg: Config{Addrs: []string{"a", "b"}, Index: 0, MaxFrame: DefaultMaxFrame}, closed: make(chan struct{})}
	tr.handler = func(from int, kind byte, payload []byte) {
		got = append(got, binary.BigEndian.Uint64(payload))
	}
	p := &peer{t: tr, index: 1, notify: make(chan struct{}, 1), up: make(chan struct{})}
	tr.peers = []*peer{nil, p}

	mkBatch := func(first, last uint64) []byte {
		var buf []byte
		var b [8]byte
		for s := first; s <= last; s++ {
			binary.BigEndian.PutUint64(b[:], s)
			buf = appendSubFrame(buf, KindUser, b[:])
		}
		return buf
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	io := &connIO{c: c1}
	p.state, p.conn = streaming, io

	if !p.receive(io, kindBatch, 1, mkBatch(1, 3)) {
		t.Fatal("initial batch rejected")
	}
	if p.ackDue {
		t.Fatal("three frames marked an ack due")
	}
	if !p.receive(io, kindBatch, 1, mkBatch(1, 3)) {
		t.Fatal("full replay rejected")
	}
	if !p.ackDue {
		t.Fatal("full replay marked no re-ack due")
	}
	if !p.receive(io, kindBatch, 2, mkBatch(2, 5)) {
		t.Fatal("overlapping replay rejected")
	}
	want := []uint64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("delivered %d frames (%v), want %v", len(got), got, want)
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("frame %d carried %d, want %v", i, got[i], want)
		}
	}
	// A gap (seq 8 after 5) is a protocol violation: the dispatch fails and
	// the connection is torn down.
	if p.receive(io, kindBatch, 8, mkBatch(8, 9)) {
		t.Fatal("sequence-gap batch accepted")
	}
	if p.conn == io {
		t.Fatal("connection survived a sequence gap")
	}
	if len(got) != len(want) {
		t.Fatalf("gap batch leaked deliveries: %v", got)
	}
}

// TestBatchedSendRecvAllocsPerFrame pins the allocation budget of the
// coalescing wire path end-to-end: frames sent in bursts (so the send loop
// actually builds multi-frame kindBatch groups) must stay within a small
// constant per frame across enqueue, vectored encode, read, and batch
// dispatch on the receiver.
func TestBatchedSendRecvAllocsPerFrame(t *testing.T) {
	var received atomic.Int64
	mk := func(i int) Handler {
		if i != 0 {
			return nil
		}
		return func(from int, kind byte, payload []byte) { received.Add(1) }
	}
	ts := newLocalCluster(t, 2, mk)
	defer finishAll(t, ts)
	sender := ts[1]
	payload := make([]byte, 256)
	const burst = 64

	var sent int64
	send := func() {
		for i := 0; i < burst; i++ {
			sender.Send(0, KindUser, payload)
		}
		sent += burst
		// Wait for delivery inside the measured run: the run then covers the
		// full enqueue-coalesce-write-dispatch roundtrip, and buffer recycling
		// (driven by the returning acks) keeps up run to run instead of
		// depending on scheduler luck.
		for received.Load() < sent {
			time.Sleep(20 * time.Microsecond)
		}
	}
	// Warm the pools, the queue backing arrays and the header arena.
	for i := 0; i < 50; i++ {
		send()
	}

	allocs := testing.AllocsPerRun(200, send)
	// The budget is per burst of 64 frames: the enqueue path is
	// allocation-free at steady state, so what remains is the sender,
	// receiver and ack goroutines running concurrently with the measured
	// loop. Allowing 1/2 alloc per frame keeps the pin meaningful (the old
	// copying path cost several per frame) without flaking on scheduler
	// noise.
	if allocs > burst/2 {
		t.Fatalf("batched wire path allocates %.2f objects per %d-frame burst, want <= %d", allocs, burst, burst/2)
	}
}

// TestRejectsWrongCluster ensures a handshake from a different cluster (or
// a different protocol version) never installs a session.
func TestRejectsWrongCluster(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:1"} // peer 1 never dials
	tr := &Transport{cfg: Config{Addrs: addrs, Index: 0, ClusterID: 7, MaxFrame: DefaultMaxFrame}, closed: make(chan struct{})}
	tr.peers = []*peer{nil, {t: tr, index: 1, notify: make(chan struct{}, 1), up: make(chan struct{})}}
	tr.ln = ln
	tr.wg.Add(1)
	go tr.acceptLoop()
	defer tr.Close()

	for name, forge := range map[string]func() []byte{
		"wrong cluster": func() []byte {
			return AppendFrame(nil, kindHello, 0, appendHello(nil, hello{ClusterID: 99, From: 1, Procs: 2}))
		},
		"wrong version": func() []byte {
			return AppendFrame(nil, kindHello, 0, helloAtVersion(hello{ClusterID: 7, From: 1, Procs: 2}, Version+3))
		},
		"wrong procs": func() []byte {
			return AppendFrame(nil, kindHello, 0, appendHello(nil, hello{ClusterID: 7, From: 1, Procs: 5}))
		},
	} {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(forge()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The transport must reject: the connection is closed with no
		// hello-ack.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if n, err := c.Read(buf); err == nil {
			t.Fatalf("%s: got %d response bytes, want closed connection", name, n)
		}
		c.Close()
		select {
		case <-tr.peers[1].up:
			t.Fatalf("%s: session installed from forged handshake", name)
		default:
		}
	}
	_ = fmt.Sprintf // keep fmt for future debugging
}

// TestUnreachablePeerFailsWithoutPanic pins the redial give-up path: when a
// peer stays unreachable past DialTimeout, the transport must not panic (it
// used to, killing the whole process from a goroutine) but record the error,
// invoke the Fatal hook once, and surface the cause from the shutdown
// barrier.
func TestUnreachablePeerFailsWithoutPanic(t *testing.T) {
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
	var fatals atomic.Int64
	fatalCh := make(chan error, 1)
	var ts [2]*Transport
	var wg sync.WaitGroup
	var errs [2]error
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Addrs: addrs, Index: i, Listener: lns[i], DialTimeout: 10 * time.Second}
			if i == 1 {
				cfg.DialTimeout = 400 * time.Millisecond
				cfg.Fatal = func(err error) {
					fatals.Add(1)
					fatalCh <- err
				}
			}
			ts[i], errs[i] = Dial(cfg, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	// Peer 0 vanishes for good: close it outright and release its address so
	// peer 1's redial dials a dead port until its timeout expires.
	ts[0].Close()
	select {
	case err := <-fatalCh:
		if err == nil {
			t.Fatal("Fatal hook invoked with nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fatal hook never invoked for unreachable peer")
	}
	if err := ts[1].Err(); err == nil {
		t.Fatal("Err() nil after fatal redial failure")
	}
	if err := ts[1].Finish(2 * time.Second); err == nil {
		t.Fatal("Finish returned nil on a fatally failed transport")
	}
	if n := fatals.Load(); n != 1 {
		t.Fatalf("Fatal hook invoked %d times, want 1", n)
	}
}

// TestAckDuringReplayKeepsBuffers pins the ring's ownership rule: only the
// sender recycles payload buffers. After a reconnect the peer may ack frames
// the sender is still replaying — it received them on the dead connection.
// If that ack recycled their buffers, the Sends that follow would take them
// from the pool and overwrite the bytes under the replay write.
func TestAckDuringReplayKeepsBuffers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transport{cfg: Config{Addrs: []string{"a", "b"}, Index: 0, MaxFrame: DefaultMaxFrame}, ln: ln, closed: make(chan struct{})}
	p := &peer{t: tr, index: 1, notify: make(chan struct{}, 1), up: make(chan struct{}), pool: freelist.New[[]byte](&tr.poolBytes)}
	tr.peers = []*peer{nil, p}
	tr.wg.Add(1)
	go p.sendLoop()
	defer tr.Close()
	session := func(cond func() bool) func() bool {
		return func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return cond()
		}
	}

	const n = 16
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }

	// The first connection carries every frame to a reader that never
	// acks, so the session retains them all.
	a, aPeer := net.Pipe()
	go io.Copy(io.Discard, aPeer)
	p.install(&connIO{c: a, br: bufio.NewReader(a)}, 0)
	for i := 1; i <= n; i++ {
		tr.Send(1, KindUser, payload(byte(i)))
	}
	waitFor(t, session(func() bool { return p.written == n && !p.inFlight }))

	// The second connection's reader is held, so the replay write blocks.
	b, bPeer := net.Pipe()
	defer bPeer.Close()
	p.install(&connIO{c: b, br: bufio.NewReader(b)}, 0)
	waitFor(t, session(func() bool { return p.state == streaming && p.inFlight }))

	// The peer acks every replayed frame, and new frames with other bytes
	// follow while the replay is still being written.
	var ack [8]byte
	binary.BigEndian.PutUint64(ack[:], n)
	if _, err := bPeer.Write(AppendFrame(nil, kindAck, 0, ack[:])); err != nil {
		t.Fatal(err)
	}
	waitFor(t, session(func() bool { return p.ackedSeq == n }))
	for i := 0; i < n; i++ {
		tr.Send(1, KindUser, payload(0xee))
	}

	// Release the reader: every replayed payload arrives as it was sent.
	fr := NewFrameReader(bPeer, 0)
	replayed := 0
	check := func(seq uint64, kind byte, body []byte) bool {
		if seq <= n {
			replayed++
			if !bytes.Equal(body, payload(byte(seq))) {
				t.Errorf("replayed frame %d arrived as %x", seq, body[:8])
			}
		}
		return true
	}
	for replayed < n {
		kind, seq, body, err := fr.Next()
		if err != nil {
			t.Fatalf("after %d replayed frames: %v", replayed, err)
		}
		if kind == kindBatch {
			if err := forEachSub(seq, body, check); err != nil {
				t.Fatal(err)
			}
		} else if kind >= KindUser {
			check(seq, kind, body)
		}
	}
}
