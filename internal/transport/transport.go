package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"megaphone/internal/freelist"
)

// rejectRetired is the reason payload of a kindReject frame sent to a
// dialer whose slot this process has retired.
const rejectRetired = "retired"

// errRetiredByPeer reports a dial rejected because the peer has retired us:
// the session is over for good, not merely interrupted.
var errRetiredByPeer = errors.New("transport: peer has retired this process")

// Config describes one process's membership in a cluster.
type Config struct {
	// Addrs lists one TCP address per process; Addrs[Index] is this
	// process's listen address. Every process must be given the same list
	// in the same order.
	Addrs []string
	// Index is this process's position in Addrs.
	Index int
	// ClusterID identifies the cluster in handshakes so stray processes
	// from another run are rejected. 0 derives it from Addrs, which every
	// process shares.
	ClusterID uint64
	// MaxFrame bounds the encoded size of one frame (DefaultMaxFrame if 0).
	MaxFrame int
	// DialTimeout bounds how long establishing (or re-establishing) any one
	// connection may take, covering peers that start late. Default 30s.
	DialTimeout time.Duration
	// AckEvery is the number of received frames between acknowledgements
	// (default 64); it bounds how much a sender retains for replay.
	AckEvery int
	// Coalesce caps how many payload bytes the send loop packs into one
	// batch frame (defaultCoalesce if 0, never more than MaxFrame). Frames
	// larger than the cap travel alone, up to MaxFrame.
	Coalesce int
	// Listener, when non-nil, is a pre-bound listener for Addrs[Index]
	// (tests bind :0 first to pick free ports without a race).
	Listener net.Listener
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// Fatal, when non-nil, is invoked (once, from a transport goroutine) when
	// the transport dies irrecoverably — a non-retired peer unreachable for
	// DialTimeout of consecutive redial failures. By the time it runs the
	// transport is already torn down; the hook's job is to unwedge whatever
	// sits above (a dataflow blocked on the dead session) so the error can
	// surface through the normal shutdown path instead of a panic.
	Fatal func(err error)
	// Absent marks roster slots that are not members of the cluster when
	// this process starts. Addrs is the full fixed roster; membership is
	// which slots are live. Absent[i] for a peer means: do not dial it and
	// do not wait for it at startup — it may join later by dialing us.
	// Absent[Index] means this process is itself a late joiner: it dials
	// every live peer regardless of index order (the usual
	// higher-index-dials rule assumes everyone starts together).
	Absent []bool
	// MembershipEpoch is the initial membership view version carried in
	// handshakes; bump it via Transport.SetMembershipEpoch as views change.
	MembershipEpoch uint64
}

func (c *Config) defaults() {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 30 * time.Second
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 64
	}
	if c.Coalesce <= 0 {
		c.Coalesce = defaultCoalesce
	}
	if c.Coalesce > c.MaxFrame {
		c.Coalesce = c.MaxFrame
	}
	if c.ClusterID == 0 {
		h := fnv.New64a()
		h.Write([]byte(strings.Join(c.Addrs, ",")))
		c.ClusterID = h.Sum64() | 1 // never 0
	}
}

// Handler receives every user frame (kind >= KindUser), exactly once, in
// per-peer FIFO order; calls for one peer never overlap (calls for different
// peers do). It runs on the receiving connection's goroutine; the payload is
// only valid for the duration of the call.
type Handler func(from int, kind byte, payload []byte)

// frame is one queued or retained outbound frame. data is pool-owned and
// recycled once the frame is acknowledged.
type frame struct {
	seq  uint64
	kind byte
	data []byte
}

// connIO pairs a connection with its buffered reader (the reader must
// survive the handshake-to-recvLoop handoff).
type connIO struct {
	c  net.Conn
	br *bufio.Reader
}

// peer is the session with one remote process: the outbound queue and
// retained frames, the live connection, and receive-side bookkeeping.
type peer struct {
	t      *Transport
	index  int
	dials  bool // we dial this peer (our index is higher, or we are a joiner)
	absent bool // roster slot inactive at our startup; may join later

	mu      sync.Mutex
	notify  chan struct{} // latched wake for the sender goroutine
	q       []frame       // enqueued, not yet written
	spareQ  []frame       // recycled batch backing array
	unacked []frame       // written on some conn, awaiting ack
	// unackedHead indexes the first retained frame in unacked: acks advance
	// the cursor instead of memmoving the (potentially large) retained tail
	// on every ack; the array compacts only when the dead prefix dominates.
	unackedHead int
	pool        freelist.List[[]byte] // recycled frame payload buffers; an interval is one ack round
	sendSeq     uint64                // last assigned outbound sequence number
	ackedSeq    uint64                // highest outbound seq acked by the peer
	recvSeq     uint64                // highest contiguous inbound seq received
	lastAck     uint64                // recvSeq when we last enqueued an ack
	finRecvd    bool
	finSeq      uint64 // our FIN's seq (0 until Finish)
	inFlight    bool   // sender is mid-write on a batch taken from q
	joined      bool   // a connection was installed at least once
	retired     bool   // peer left the cluster for good; drop sends, no redial
	retiredUs   bool   // the peer rejected our dial as retired: it will never
	// ack another frame of ours, so shutdown barriers must not wait for it.
	// Set only on a leaver (survivors retire a departed member on its
	// goodbye, which can close the connection before the leaver's FIN is
	// acknowledged).

	conn    *connIO // adopted by the sender goroutine
	pending *struct {
		io       *connIO
		peerRecv uint64
	}
	redialing bool

	upOnce sync.Once
	up     chan struct{} // closed when the first conn is established

	// dispatch serializes inbound frame processing across connection
	// generations: after a reconnect, the old connection's receive loop can
	// still be draining frames buffered in its reader (or be blocked in the
	// handler) while the new connection's loop starts. Holding dispatch
	// around the whole receive step (sequence check, cursor update, handler
	// call) keeps the Handler contract — per-peer FIFO, exactly once — true
	// even across that overlap: the sequence discipline then deduplicates
	// and orders whichever loop runs first.
	dispatch sync.Mutex
}

// Transport is one process's endpoint of the cluster mesh: N-1 reliable,
// FIFO, exactly-once frame sessions, one per peer process.
type Transport struct {
	cfg      Config
	handler  Handler
	peers    []*peer // nil at this process's own index
	ln       net.Listener
	memEpoch atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup

	fatalMu  sync.Mutex
	fatalErr error

	poolBytes atomic.Int64 // what the sessions' payload pools hold
}

// PoolBytes reports the bytes of frame-payload buffers the sessions' pools
// hold for reuse.
func (t *Transport) PoolBytes() int64 { return t.poolBytes.Load() }

// Dial joins the cluster: it binds the local listener, connects to every
// lower-indexed peer (retrying with backoff while they start), accepts
// connections from every higher-indexed peer, and returns once all N-1
// sessions are up. handler receives every inbound user frame.
func Dial(cfg Config, handler Handler) (*Transport, error) {
	cfg.defaults()
	if cfg.Index < 0 || cfg.Index >= len(cfg.Addrs) {
		return nil, fmt.Errorf("transport: index %d out of range for %d addrs", cfg.Index, len(cfg.Addrs))
	}
	t := &Transport{cfg: cfg, handler: handler, closed: make(chan struct{})}
	t.memEpoch.Store(cfg.MembershipEpoch)
	absent := func(i int) bool { return i < len(cfg.Absent) && cfg.Absent[i] }
	selfJoiner := absent(cfg.Index)
	for i := range cfg.Addrs {
		if i == cfg.Index {
			t.peers = append(t.peers, nil)
			continue
		}
		t.peers = append(t.peers, &peer{
			t:      t,
			index:  i,
			dials:  cfg.Index > i || selfJoiner,
			absent: absent(i),
			notify: make(chan struct{}, 1),
			up:     make(chan struct{}),
			pool:   freelist.New[[]byte](&t.poolBytes),
		})
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Index])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Index], err)
		}
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()

	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.wg.Add(1)
		go p.sendLoop()
		if p.dials && !p.absent {
			p.mu.Lock()
			p.startRedialLocked()
			p.mu.Unlock()
		}
	}

	waited := 0
	deadline := time.After(cfg.DialTimeout)
	for _, p := range t.peers {
		if p == nil || p.absent {
			continue
		}
		waited++
		select {
		case <-p.up:
		case <-deadline:
			t.Close()
			return nil, fmt.Errorf("transport: process %d: peer %d did not connect within %v",
				cfg.Index, p.index, cfg.DialTimeout)
		}
	}
	t.logf("transport: process %d/%d connected to %d peers", cfg.Index, len(cfg.Addrs), waited)
	return t, nil
}

// Index returns this process's index.
func (t *Transport) Index() int { return t.cfg.Index }

// Procs returns the cluster's process count.
func (t *Transport) Procs() int { return len(t.cfg.Addrs) }

// MaxFrame returns the configured frame size bound.
func (t *Transport) MaxFrame() int { return t.cfg.MaxFrame }

// SetMembershipEpoch updates the membership view version carried in any
// future handshake (reconnects and accepted joins).
func (t *Transport) SetMembershipEpoch(e uint64) { t.memEpoch.Store(e) }

// MembershipEpoch returns the current membership view version.
func (t *Transport) MembershipEpoch() uint64 { return t.memEpoch.Load() }

// Retire removes a peer from the mesh for good: its session is torn down,
// reconnect attempts stop (no DialTimeout panic for a declared-dead peer),
// queued and retained frames are dropped, further Sends to it are dropped
// silently, and the shutdown barriers skip it. Used after a drain-leave FIN
// or a declared crash death; there is no un-retire.
func (t *Transport) Retire(i int) {
	p := t.peers[i]
	if p == nil {
		return
	}
	p.mu.Lock()
	already := p.retired
	p.retired = true
	if p.conn != nil {
		p.conn.c.Close()
		p.conn = nil
	}
	if p.pending != nil {
		p.pending.io.c.Close()
		p.pending = nil
	}
	for _, f := range p.q {
		if f.data != nil {
			p.putBufLocked(f.data)
		}
	}
	p.q = p.q[:0]
	for _, f := range p.unacked[p.unackedHead:] {
		if f.data != nil {
			p.putBufLocked(f.data)
		}
	}
	p.unacked = p.unacked[:0]
	p.unackedHead = 0
	p.mu.Unlock()
	p.upOnce.Do(func() { close(p.up) })
	p.poke()
	if !already {
		t.logf("transport: process %d: retired peer %d", t.cfg.Index, i)
	}
}

// Retired reports whether peer i has been retired.
func (t *Transport) Retired(i int) bool {
	p := t.peers[i]
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retired
}

// Joined reports whether a session with peer i was ever installed. An absent
// roster slot flips to joined when the late process dials in; the mesh's
// control-plane broadcast uses this to reach a joiner that is connected but
// not yet an active dataflow participant.
func (t *Transport) Joined(i int) bool {
	p := t.peers[i]
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.joined && !p.retired
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

func (t *Transport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// Send enqueues one user frame to a peer process and copies payload, so
// the caller's buffer is immediately reusable. It never blocks on the
// network: the per-peer queue is deliberately unbounded, which is what
// rules out cross-process send deadlocks (a worker blocked sending to a
// peer whose worker is blocked sending back). The flip side is that
// memory, not backpressure, absorbs a stalled peer — retention stays small
// only while the peer drains and acks; if it stops doing either, queued
// and retained frames grow until the peer recovers or the run is killed.
// The enqueue itself is allocation-free at steady state: the payload copy
// lands in a recycled buffer and the queue reuses its backing array.
//
// An oversized frame (payload beyond MaxFrame) is not a recoverable
// condition — the layer above sized its batches against MaxFrame, so the
// session's framing contract is broken — but it is data-dependent, so it is
// reported through the transport's fatal error path (the frame is dropped,
// the transport tears down, and the Fatal hook unwedges the layer above)
// rather than by panicking on whichever worker goroutine happened to send it.
//
//megalint:hotpath
func (t *Transport) Send(to int, kind byte, payload []byte) {
	if kind < KindUser {
		panic(fmt.Sprintf("transport: Send with reserved kind %d", kind))
	}
	if frameOverhead+len(payload) > t.cfg.MaxFrame {
		//megalint:allow hotalloc oversized-frame fatal path: the transport tears down after this
		t.fail(fmt.Errorf("transport: process %d: send of %d bytes to peer %d: %w",
			t.cfg.Index, len(payload), to,
			ErrFrameTooLarge{Declared: frameOverhead + len(payload), Max: t.cfg.MaxFrame}))
		return
	}
	p := t.peers[to]
	if p == nil {
		panic(fmt.Sprintf("transport: Send to self (process %d)", to))
	}
	p.enqueue(kind, payload, true)
}

// enqueue appends one frame (numbered when numbered is true) to the peer's
// outbound queue, copying payload into a pooled buffer.
//
//megalint:hotpath
func (p *peer) enqueue(kind byte, payload []byte, numbered bool) {
	p.mu.Lock()
	if p.retired {
		p.mu.Unlock()
		return
	}
	buf := p.getBufLocked(len(payload))
	buf = append(buf[:0], payload...)
	var seq uint64
	if numbered {
		p.sendSeq++
		seq = p.sendSeq
	}
	p.q = append(p.q, frame{seq: seq, kind: kind, data: buf})
	p.mu.Unlock()
	p.poke()
}

//megalint:hotpath
func (p *peer) poke() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// getBufLocked pops a recycled payload buffer with enough capacity, or
// allocates one.
//
//megalint:hotpath
func (p *peer) getBufLocked(n int) []byte {
	if buf, ok := p.pool.Get(); ok && cap(buf) >= n {
		return buf
	}
	//megalint:allow hotalloc pool miss or undersized buffer: the pool is warm at steady state
	return make([]byte, 0, n)
}

// putBufLocked recycles a frame's payload buffer. The pool has to cover the
// whole in-flight window — enqueued, written, awaiting ack — or the enqueue
// path falls back to the allocator between ack roundtrips; freelist's rule
// sizes it to exactly that: every buffer of the window is taken again
// within an ack round or two, while what a burst (an all-at-once migration's
// state frames, a catch-up backlog) added on top, in count or in buffer
// size, ages out two ack rounds after the session last needed it.
//
//megalint:hotpath
func (p *peer) putBufLocked(buf []byte) {
	p.pool.Put(buf[:0], len(buf), cap(buf))
}

// sendLoop is the session's single sender goroutine. It alone adopts new
// connections and moves frames between q and unacked, which keeps replay
// ordering trivially correct: frames enter unacked only after a write
// attempt, and a newly adopted connection first drains unacked (minus what
// the peer already acknowledged) back into the front of q.
//
// Each round drains the queue into one vectored write (net.Buffers): runs of
// numbered frames coalesce into kindBatch frames whose 5-byte sub-headers
// live in a reused header arena and whose payloads are referenced in place
// from their pooled buffers — nothing is copied into a scratch frame buffer,
// and one writev replaces per-frame Write calls. Replay after a reconnect
// re-coalesces naturally: retention is per frame, and the receiver
// deduplicates by the sub-frames' implicit sequence numbers.
func (p *peer) sendLoop() {
	defer p.t.wg.Done()
	var conn *connIO
	var hdrs []byte   // header arena; pre-sized per round so slices into it stay valid
	var vecs [][]byte // iovec list, rebuilt per round
	var outerPad [frameOverhead]byte
	coalesce := p.t.cfg.Coalesce
	for {
		p.mu.Lock()
		for {
			if p.pending != nil {
				// Adopt the new connection: requeue retained frames the
				// peer has not acknowledged, in sequence order, ahead of
				// everything queued since.
				nd := p.pending
				p.pending = nil
				p.trimUnackedLocked(nd.peerRecv)
				if retained := p.unacked[p.unackedHead:]; len(retained) > 0 {
					p.q = append(retained, p.q...)
					p.unacked = nil
					p.unackedHead = 0
				}
				conn = nd.io
				p.conn = conn
			}
			if len(p.q) > 0 && conn != nil {
				break
			}
			p.mu.Unlock()
			select {
			case <-p.notify:
			case <-p.t.closed:
				return
			}
			p.mu.Lock()
		}
		batch := p.q
		p.q = p.spareQ[:0]
		p.spareQ = nil
		p.inFlight = true
		p.mu.Unlock()

		// Worst case every frame opens its own group (plain header + first
		// sub-header); sizing the arena up front means later appends never
		// reallocate, so the header slices already in vecs stay valid.
		if need := (frameOverhead + subOverhead) * len(batch); cap(hdrs) < need {
			hdrs = make([]byte, 0, need)
		}
		hdrs = hdrs[:0]
		vecs = vecs[:0]

		// Open-group state: arena offset of the outer header, vec index of
		// the group's first entry, first sequence number, accumulated
		// sub-frame bytes, and sub count.
		groupOff, groupVec, groupLen, groupN := -1, -1, 0, 0
		var groupSeq uint64
		closeGroup := func() {
			if groupOff < 0 {
				return
			}
			h := hdrs[groupOff:]
			if groupN == 1 {
				// A lone frame reverts to the plain format in place: the
				// reserved outer+sub header region is rewritten as one
				// 13-byte frame header and its vec entry shrunk to match.
				binary.BigEndian.PutUint32(h, uint32(1+8+groupLen-subOverhead))
				h[4] = h[frameOverhead+4] // the sub's kind byte
				binary.BigEndian.PutUint64(h[5:], groupSeq)
				vecs[groupVec] = vecs[groupVec][:frameOverhead]
			} else {
				binary.BigEndian.PutUint32(h, uint32(1+8+groupLen))
				h[4] = kindBatch
				binary.BigEndian.PutUint64(h[5:], groupSeq)
			}
			groupOff, groupVec, groupLen, groupN = -1, -1, 0, 0
		}
		for _, f := range batch {
			if f.seq == 0 {
				// Unnumbered frames (acks) travel alone in the plain format.
				closeGroup()
				off := len(hdrs)
				hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(1+8+len(f.data)))
				hdrs = append(hdrs, f.kind)
				hdrs = binary.BigEndian.AppendUint64(hdrs, 0)
				vecs = append(vecs, hdrs[off:off+frameOverhead])
				if len(f.data) > 0 {
					vecs = append(vecs, f.data)
				}
				continue
			}
			if groupOff >= 0 && frameOverhead+1+8+groupLen+subOverhead+len(f.data) > coalesce {
				closeGroup()
			}
			if groupOff < 0 {
				// Start a group: reserve the outer header and the first
				// sub-header contiguously (one vec entry; patched on close).
				groupOff, groupVec, groupSeq = len(hdrs), len(vecs), f.seq
				hdrs = append(hdrs, outerPad[:]...)
			}
			off := len(hdrs)
			hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(1+len(f.data)))
			hdrs = append(hdrs, f.kind)
			if groupN == 0 {
				vecs = append(vecs, hdrs[groupOff:off+subOverhead])
			} else {
				vecs = append(vecs, hdrs[off:off+subOverhead])
			}
			if len(f.data) > 0 {
				vecs = append(vecs, f.data)
			}
			groupLen += subOverhead + len(f.data)
			groupN++
		}
		closeGroup()

		bufs := net.Buffers(vecs)
		_, err := bufs.WriteTo(conn.c)
		writeErr := err != nil

		p.mu.Lock()
		for _, f := range batch {
			if f.seq == 0 {
				p.putBufLocked(f.data) // unnumbered frames are never replayed
				continue
			}
			p.unacked = append(p.unacked, f)
		}
		p.spareQ = batch[:0]
		p.inFlight = false
		p.mu.Unlock()
		if writeErr {
			p.connBroken(conn)
			conn = nil
		}
	}
}

// trimUnackedLocked recycles retained frames up to and including seq.
func (p *peer) trimUnackedLocked(seq uint64) {
	if seq > p.ackedSeq {
		p.ackedSeq = seq
	}
	i := p.unackedHead
	for ; i < len(p.unacked) && p.unacked[i].seq <= seq; i++ {
		p.putBufLocked(p.unacked[i].data)
		p.unacked[i].data = nil
	}
	p.unackedHead = i
	if i == len(p.unacked) {
		p.unacked = p.unacked[:0]
		p.unackedHead = 0
	} else if i > 1024 && i > len(p.unacked)-i {
		p.unacked = p.unacked[:copy(p.unacked, p.unacked[i:])]
		p.unackedHead = 0
	}
}

// connBroken reacts to a read or write error on io: if io is still the
// peer's current or pending connection, tear it down and (on the dialing
// side) start reconnecting. The accepting side waits for the dialer.
func (p *peer) connBroken(io *connIO) {
	if io == nil || p.t.isClosed() {
		return
	}
	p.mu.Lock()
	current := p.conn == io || (p.pending != nil && p.pending.io == io)
	if current {
		io.c.Close()
		if p.conn == io {
			p.conn = nil
		}
		if p.pending != nil && p.pending.io == io {
			p.pending = nil
		}
		if p.dials && !p.retired && !p.retiredUs {
			p.startRedialLocked()
		}
	}
	p.mu.Unlock()
	if current {
		p.poke()
		p.t.logf("transport: process %d: connection to peer %d broken", p.t.cfg.Index, p.index)
	}
}

// startRedialLocked launches the single-flight redial goroutine.
func (p *peer) startRedialLocked() {
	if p.redialing {
		return
	}
	p.redialing = true
	p.t.wg.Add(1)
	go p.redial()
}

// redial connects to the peer with exponential backoff, performs the
// handshake (carrying our receive cursor so the peer replays what we
// missed), and installs the connection. It gives up — declaring the
// transport dead via fail, since the dataflow above cannot make progress
// without the session — only after DialTimeout of consecutive failures.
func (p *peer) redial() {
	defer p.t.wg.Done()
	t := p.t
	start := time.Now()
	backoff := 50 * time.Millisecond
	for {
		p.mu.Lock()
		retired := p.retired
		p.mu.Unlock()
		if t.isClosed() || retired {
			p.mu.Lock()
			p.redialing = false
			p.mu.Unlock()
			return
		}
		c, err := net.DialTimeout("tcp", t.cfg.Addrs[p.index], 2*time.Second)
		if err == nil {
			io := &connIO{c: c, br: bufio.NewReaderSize(c, 256<<10)}
			if err = p.handshakeDial(io); err == nil {
				p.mu.Lock()
				p.redialing = false
				p.mu.Unlock()
				return
			}
			c.Close()
			if err == errRetiredByPeer {
				// The peer retired us for good: nothing of ours will ever
				// be acked again, so stand the session down.
				p.mu.Lock()
				p.retiredUs = true
				p.redialing = false
				p.mu.Unlock()
				p.poke()
				t.logf("transport: process %d: peer %d has retired us; standing down", t.cfg.Index, p.index)
				return
			}
		}
		if time.Since(start) > t.cfg.DialTimeout {
			p.mu.Lock()
			p.redialing = false
			retired = p.retired
			p.mu.Unlock()
			if t.isClosed() || retired {
				return
			}
			t.fail(fmt.Errorf("transport: process %d: cannot reach peer %d at %s after %v: %w",
				t.cfg.Index, p.index, t.cfg.Addrs[p.index], t.cfg.DialTimeout, err))
			return
		}
		select {
		case <-time.After(backoff):
		case <-t.closed:
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// handshakeDial runs the dialer's half of the handshake on a fresh
// connection and installs it on success.
func (p *peer) handshakeDial(io *connIO) error {
	t := p.t
	p.mu.Lock()
	recv := p.recvSeq
	p.mu.Unlock()
	h := hello{ClusterID: t.cfg.ClusterID, From: t.cfg.Index, Procs: len(t.cfg.Addrs),
		RecvSeq: recv, MembershipEpoch: t.memEpoch.Load()}
	io.c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.c.Write(AppendFrame(nil, kindHello, 0, appendHello(nil, h))); err != nil {
		return err
	}
	fr := NewFrameReader(io.br, t.cfg.MaxFrame)
	kind, _, payload, err := fr.Next()
	if err != nil {
		return err
	}
	if kind == kindReject {
		if string(payload) == rejectRetired {
			return errRetiredByPeer
		}
		return fmt.Errorf("transport: dial rejected by peer %d: %s", p.index, payload)
	}
	if kind != kindHelloAck {
		return fmt.Errorf("transport: expected hello-ack, got frame kind %d", kind)
	}
	ack, err := parseHello(payload)
	if err != nil {
		return err
	}
	if ack.ClusterID != t.cfg.ClusterID || ack.From != p.index || ack.Procs != len(t.cfg.Addrs) {
		return fmt.Errorf("transport: hello-ack identity mismatch dialing peer %d at %s: remote says cluster %x from %d procs %d, want cluster %x from %d procs %d",
			p.index, io.c.RemoteAddr(), ack.ClusterID, ack.From, ack.Procs, t.cfg.ClusterID, p.index, len(t.cfg.Addrs))
	}
	io.c.SetDeadline(time.Time{})
	p.install(io, ack.RecvSeq)
	return nil
}

// acceptLoop accepts connections from higher-indexed peers, validates their
// handshake, and installs them (both at startup and on reconnect).
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func(c net.Conn) {
			defer t.wg.Done()
			if err := t.acceptOne(c); err != nil {
				c.Close()
				t.logf("transport: process %d: rejected connection: %v", t.cfg.Index, err)
			}
		}(c)
	}
}

func (t *Transport) acceptOne(c net.Conn) error {
	io := &connIO{c: c, br: bufio.NewReaderSize(c, 256<<10)}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	fr := NewFrameReader(io.br, t.cfg.MaxFrame)
	kind, _, payload, err := fr.Next()
	if err != nil {
		return err
	}
	if kind != kindHello {
		return fmt.Errorf("expected hello, got frame kind %d", kind)
	}
	h, err := parseHello(payload)
	if err != nil {
		return err
	}
	remote := c.RemoteAddr()
	if h.ClusterID != t.cfg.ClusterID {
		return fmt.Errorf("cluster id mismatch accepting dial from %s: peer %x, ours %x", remote, h.ClusterID, t.cfg.ClusterID)
	}
	if h.Procs != len(t.cfg.Addrs) {
		return fmt.Errorf("peer count mismatch accepting dial from %s (peer index %d): peer says %d, ours %d",
			remote, h.From, h.Procs, len(t.cfg.Addrs))
	}
	// The usual rule is higher-index-dials-lower; a slot marked absent in
	// our roster is a late joiner, which dials everyone, so its dial is
	// legitimate regardless of index order.
	fromAbsent := h.From >= 0 && h.From < len(t.cfg.Absent) && t.cfg.Absent[h.From]
	if h.From == t.cfg.Index || h.From < 0 || h.From >= len(t.cfg.Addrs) || (h.From < t.cfg.Index && !fromAbsent) {
		return fmt.Errorf("unexpected dial from process %d at %s to process %d (acceptor side)", h.From, remote, t.cfg.Index)
	}
	p := t.peers[h.From]
	p.mu.Lock()
	retired := p.retired
	recv := p.recvSeq
	p.mu.Unlock()
	if retired {
		// Tell the dialer before closing: a retired process redialing us is
		// usually a leaver chasing the ack of its final frames, and without
		// the reject frame it cannot distinguish retirement from an outage
		// (it would redial until its dial timeout and panic).
		c.Write(AppendFrame(nil, kindReject, 0, []byte(rejectRetired)))
		return fmt.Errorf("dial from retired process %d at %s", h.From, remote)
	}
	ack := hello{ClusterID: t.cfg.ClusterID, From: t.cfg.Index, Procs: len(t.cfg.Addrs),
		RecvSeq: recv, MembershipEpoch: t.memEpoch.Load()}
	if _, err := c.Write(AppendFrame(nil, kindHelloAck, 0, appendHello(nil, ack))); err != nil {
		return err
	}
	c.SetDeadline(time.Time{})
	p.install(io, h.RecvSeq)
	return nil
}

// install hands a fresh connection to the peer: tear down any previous one,
// start its receive loop, and leave it pending for the sender goroutine to
// adopt (which is when retained frames past peerRecv are requeued).
func (p *peer) install(io *connIO, peerRecv uint64) {
	if p.t.isClosed() {
		io.c.Close()
		return
	}
	p.mu.Lock()
	if p.retired {
		p.mu.Unlock()
		io.c.Close()
		return
	}
	if p.conn != nil {
		p.conn.c.Close()
		p.conn = nil
	}
	if p.pending != nil {
		p.pending.io.c.Close()
	}
	p.pending = &struct {
		io       *connIO
		peerRecv uint64
	}{io: io, peerRecv: peerRecv}
	p.joined = true
	p.mu.Unlock()
	p.upOnce.Do(func() { close(p.up) })
	p.poke()
	p.t.wg.Add(1)
	go p.recvLoop(io)
}

// recvLoop reads frames from one connection until it breaks, dispatching
// user frames (deduplicated by sequence number) to the handler in order.
func (p *peer) recvLoop(io *connIO) {
	defer p.t.wg.Done()
	t := p.t
	fr := NewFrameReader(io.br, t.cfg.MaxFrame)
	for frames := 1; ; frames++ {
		if frames%t.cfg.AckEvery == 0 {
			fr.Trim() // the receive side's ack round
		}
		kind, seq, payload, err := fr.Next()
		if err != nil {
			p.connBroken(io)
			return
		}
		if kind == kindAck {
			if len(payload) == 8 {
				p.mu.Lock()
				p.trimUnackedLocked(binary.BigEndian.Uint64(payload))
				p.pool.Trim()
				p.mu.Unlock()
			}
			continue
		}
		if kind == kindBatch {
			if !p.dispatchBatch(io, seq, payload) {
				return
			}
			continue
		}
		if !p.dispatchFrame(io, kind, seq, payload) {
			return
		}
	}
}

// dispatchFrame performs the receive step for one numbered frame under the
// peer's dispatch lock, so receive loops of overlapping connection
// generations never process frames concurrently or out of order. It
// reports false when the frame is a sequence-gap protocol violation (the
// connection is torn down and the caller's loop must exit).
func (p *peer) dispatchFrame(io *connIO, kind byte, seq uint64, payload []byte) bool {
	p.dispatch.Lock()
	defer p.dispatch.Unlock()
	dup := false
	ok := p.dispatchOne(io, kind, seq, payload, &dup)
	if ok && dup {
		p.reack()
	}
	return ok
}

// dispatchBatch performs the receive step for every sub-frame of one
// coalesced frame under a single dispatch-lock acquisition. Sub-frame i
// carries the implicit sequence number firstSeq+i; a replayed prefix (from a
// reconnect whose ack died with the old connection) is deduplicated
// sub-frame by sub-frame and re-acknowledged once at the end.
func (p *peer) dispatchBatch(io *connIO, firstSeq uint64, payload []byte) bool {
	p.dispatch.Lock()
	defer p.dispatch.Unlock()
	dup, ok := false, true
	if err := forEachSub(firstSeq, payload, func(seq uint64, kind byte, body []byte) bool {
		ok = p.dispatchOne(io, kind, seq, body, &dup)
		return ok
	}); err != nil {
		p.t.logf("transport: process %d: corrupt batch frame from peer %d: %v", p.t.cfg.Index, p.index, err)
		p.connBroken(io)
		return false
	}
	if ok && dup {
		p.reack()
	}
	return ok
}

// reack re-announces the receive cursor: a replayed duplicate means the
// sender never saw our covering ack (it died with the old connection) and
// retains the frame — blocking its shutdown barrier — until some ack covers
// it.
func (p *peer) reack() {
	p.mu.Lock()
	cur := p.recvSeq
	p.lastAck = cur
	p.mu.Unlock()
	var ab [8]byte
	binary.BigEndian.PutUint64(ab[:], cur)
	p.enqueue(kindAck, ab[:], false)
}

// dispatchOne is the receive step for one numbered frame; the caller holds
// the dispatch lock. Duplicates are skipped (setting *dup so the caller
// re-acks once), a sequence gap is a protocol violation that tears the
// connection down and returns false.
func (p *peer) dispatchOne(io *connIO, kind byte, seq uint64, payload []byte, dup *bool) bool {
	t := p.t
	p.mu.Lock()
	if seq <= p.recvSeq {
		p.mu.Unlock()
		*dup = true
		return true
	}
	if seq != p.recvSeq+1 {
		p.mu.Unlock()
		t.logf("transport: process %d: sequence gap from peer %d (got %d, want %d)",
			t.cfg.Index, p.index, seq, p.recvSeq+1)
		p.connBroken(io)
		return false
	}
	p.recvSeq = seq
	needAck := p.recvSeq-p.lastAck >= uint64(t.cfg.AckEvery) || kind == kindFin
	if needAck {
		p.lastAck = p.recvSeq
	}
	p.mu.Unlock()
	if needAck {
		var ab [8]byte
		binary.BigEndian.PutUint64(ab[:], seq)
		p.enqueue(kindAck, ab[:], false)
	}
	switch {
	case kind == kindFin:
		p.mu.Lock()
		p.finRecvd = true
		p.mu.Unlock()
	case kind >= KindUser:
		if t.handler != nil {
			t.handler(p.index, kind, payload)
		}
	}
	return true
}

// Finish runs the shutdown barrier: it announces FIN to every peer (after
// all previously enqueued frames, preserving FIFO) and waits until every
// peer's FIN has arrived and our own outbound queues have drained, then
// closes the transport. Because FIN is ordered after all of a peer's
// frames, returning from Finish means every frame of every peer has been
// received and handled.
func (t *Transport) Finish(timeout time.Duration) error {
	return t.finish(timeout, true)
}

// FinishLeave is the drain-leaver's one-sided shutdown barrier: FIN is
// announced to every live peer and the call returns once each has
// acknowledged it (so every frame we sent was received) and our queues
// have drained — without waiting for the peers' own FINs, which the
// survivors only send at the end of their run, long after we are gone.
func (t *Transport) FinishLeave(timeout time.Duration) error {
	return t.finish(timeout, false)
}

func (t *Transport) finish(timeout time.Duration, waitPeerFin bool) error {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	// skip reports peers outside the barrier: retired ones (in either
	// direction — a peer that retired us will never ack again), and absent
	// slots that never joined. Re-evaluated every pass — a peer may be
	// retired while we wait, which must release the barrier for it.
	skip := func(p *peer) bool {
		return p.retired || p.retiredUs || (p.absent && !p.joined)
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if skip(p) {
			p.mu.Unlock()
			continue
		}
		p.sendSeq++
		fin := frame{seq: p.sendSeq, kind: kindFin}
		p.finSeq = fin.seq
		p.q = append(p.q, fin)
		p.mu.Unlock()
		p.poke()
	}
	deadline := time.Now().Add(timeout)
	for {
		if err := t.Err(); err != nil {
			// The transport died (peer unreachable past DialTimeout): the
			// barrier can never drain. Surface the cause, not the timeout.
			t.Close()
			return err
		}
		done := true
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			// Drained means: the peer acknowledged our FIN (so every frame we
			// sent was received), their FIN arrived (so every frame they sent
			// was handled — unless this is a one-sided leave), and nothing of
			// ours — acks included — is still queued or mid-write. In a
			// one-sided leave a session whose connection is down with no
			// redial in flight will never ack again — survivors retire a
			// leaver on its goodbye and drop the connection, and when the peer
			// owns the dialing there is no reject handshake to tell us so. The
			// leaver verified application of everything it sent (probe past
			// its hold epoch) before saying goodbye, so the unacknowledged
			// tail is only the FIN formality.
			drained := skip(p) ||
				((p.finRecvd || !waitPeerFin) && p.ackedSeq >= p.finSeq &&
					len(p.q) == 0 && !p.inFlight) ||
				(!waitPeerFin && p.joined && p.conn == nil && !p.redialing)
			p.mu.Unlock()
			if !drained {
				done = false
				break
			}
		}
		if done {
			t.Close()
			return nil
		}
		if time.Now().After(deadline) {
			t.Close()
			return fmt.Errorf("transport: process %d: shutdown barrier timed out after %v", t.cfg.Index, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fail records the transport's first fatal error, tears the sessions down
// (without waiting for the transport goroutines — the caller is one of
// them), and invokes the Fatal hook so the layer above can stop waiting on
// the fabric. Later failures are ignored: only the first is the cause.
func (t *Transport) fail(err error) {
	t.fatalMu.Lock()
	first := t.fatalErr == nil
	if first {
		t.fatalErr = err
	}
	t.fatalMu.Unlock()
	if !first {
		return
	}
	t.logf("transport: process %d: fatal: %v", t.cfg.Index, err)
	t.shutdown()
	if t.cfg.Fatal != nil {
		t.cfg.Fatal(err)
	}
}

// Err returns the fatal error that killed the transport, or nil while it is
// healthy (or was shut down in an orderly way).
func (t *Transport) Err() error {
	t.fatalMu.Lock()
	defer t.fatalMu.Unlock()
	return t.fatalErr
}

// shutdown closes the listener and every session exactly once, releasing
// all transport goroutines, without waiting for them to exit.
func (t *Transport) shutdown() {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.conn != nil {
				p.conn.c.Close()
			}
			if p.pending != nil {
				p.pending.io.c.Close()
			}
			p.mu.Unlock()
			p.poke()
		}
	})
}

// Close tears the transport down immediately: all connections and the
// listener are closed and the goroutines exit. Prefer Finish for an orderly
// shutdown.
func (t *Transport) Close() {
	t.shutdown()
	t.wg.Wait()
}
