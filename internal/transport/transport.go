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
}

func (c *Config) defaults() {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 30 * time.Second
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

// frame is one numbered outbound frame (a user frame or the FIN). data is
// pool-owned and recycled once the frame is acknowledged.
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

// state is where a session stands. Every change goes through
// peer.setLocked.
type state uint8

const (
	connecting    state = iota // no connection yet, or (if we dial) one redial goroutine reconnects
	absent                     // roster slot inactive at our startup; it may join by dialing us
	replaying                  // conn is fresh: the sender adopts it and rewinds to the peer's cursor
	streaming                  // the sender writes on conn
	down                       // no connection and no dial of ours: the peer redials, or we shut down
	retired                    // the peer left for good: sends are dropped, nothing is dialed
	retiredByPeer              // the peer rejected our dial as retired: it never acks again
)

// peer is the session with one remote process.
//
// Every numbered frame sent to it (the FIN included) is appended once to
// ring. Two cursors split the ring: [acked, written) was written on some
// connection and is retained until the peer acknowledges it; [written, len)
// is queued. Adopting a new connection only moves written back to the first
// frame the peer has not received. Acks are cumulative, so none passes
// through the ring: ackDue marks that the receive cursor is to be announced,
// and each send round writes at most one ack frame.
//
// Only sendLoop moves the cursors, compacts the ring and recycles payload
// buffers. After a reconnect the peer can ack frames the sender is still
// replaying (it received them on the dead connection), so only the
// goroutine that writes from a buffer may recycle it: the receive side
// records the highest ack in ackedSeq and pokes the sender, and Retire sets
// the state and pokes.
type peer struct {
	t     *Transport
	index int
	dials bool // we dial this peer (our index is higher, or we are a joiner)

	mu       sync.Mutex
	notify   chan struct{} // latched wake for the sender goroutine
	state    state
	conn     *connIO // the connection of a replaying or streaming session
	peerRecv uint64  // the peer's receive cursor from conn's handshake
	ring     []frame
	acked    int                   // ring index of the first unacknowledged frame
	written  int                   // ring index of the first frame not yet written
	inFlight bool                  // the sender is mid-write
	pool     freelist.List[[]byte] // recycled frame payload buffers; an interval is one ack round
	sendSeq  uint64                // last assigned outbound sequence number
	ackedSeq uint64                // highest outbound seq acked by the peer
	recvSeq  uint64                // highest contiguous inbound seq received
	lastAck  uint64                // recvSeq when an ack was last marked due
	ackDue   bool                  // recvSeq is to be announced to the peer
	finRecvd bool
	finSeq   uint64 // our FIN's seq (0 until Finish)

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

// setLocked moves the session to state s holding connection io (nil for a
// state without one), closing the connection it held unless that is io.
// Retired is final. The caller holds p.mu and, unless it is the sender or
// shutdown (whose closed channel wakes the sender), pokes the sender.
func (p *peer) setLocked(s state, io *connIO) {
	if p.state == retired {
		return
	}
	if p.conn != nil && p.conn != io {
		p.conn.c.Close()
	}
	p.state, p.conn = s, io
}

// Transport is one process's endpoint of the cluster mesh: N-1 reliable,
// FIFO, exactly-once frame sessions, one per peer process.
type Transport struct {
	cfg     Config
	handler Handler
	peers   []*peer // nil at this process's own index
	ln      net.Listener

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
	isAbsent := func(i int) bool { return i < len(cfg.Absent) && cfg.Absent[i] }
	selfJoiner := isAbsent(cfg.Index)
	for i := range cfg.Addrs {
		if i == cfg.Index {
			t.peers = append(t.peers, nil)
			continue
		}
		p := &peer{
			t:      t,
			index:  i,
			dials:  cfg.Index > i || selfJoiner,
			notify: make(chan struct{}, 1),
			up:     make(chan struct{}),
			pool:   freelist.New[[]byte](&t.poolBytes),
		}
		if isAbsent(i) {
			p.state = absent
		}
		t.peers = append(t.peers, p)
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
		if p.dials && !isAbsent(p.index) {
			t.wg.Add(1)
			go p.redial()
		}
	}

	waited := 0
	deadline := time.After(cfg.DialTimeout)
	for _, p := range t.peers {
		if p == nil || isAbsent(p.index) {
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
	already := p.state == retired
	p.setLocked(retired, nil)
	p.mu.Unlock()
	p.poke()
	if !already {
		t.logf("transport: process %d: retired peer %d", t.cfg.Index, i)
	}
}

// Joined reports whether a session with peer i was ever installed and the
// peer is not retired. An absent roster slot flips to joined when the late
// process dials in; the mesh's control-plane broadcast uses this to reach a
// joiner that is connected but not yet an active dataflow participant.
// (Every other peer was connected by the time Dial returned.)
func (t *Transport) Joined(i int) bool {
	p := t.peers[i]
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state != absent && p.state != retired
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

// Send appends one user frame to a peer process's ring and copies payload,
// so the caller's buffer is immediately reusable. It never blocks on the
// network: the ring is deliberately unbounded, which is what rules out
// cross-process send deadlocks (a worker blocked sending to a peer whose
// worker is blocked sending back). The flip side is that memory, not
// backpressure, absorbs a stalled peer — retention stays small only while
// the peer drains and acks; if it stops doing either, queued and retained
// frames grow until the peer recovers or the run is killed. The append
// itself is allocation-free at steady state: the payload copy lands in a
// recycled buffer and the ring reuses its backing array.
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
	p.mu.Lock()
	if p.state == retired {
		p.mu.Unlock()
		return
	}
	buf := p.getBufLocked(len(payload))
	buf = append(buf[:0], payload...)
	p.sendSeq++
	p.ring = append(p.ring, frame{seq: p.sendSeq, kind: kind, data: buf})
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

// sendLoop is the session's single sender goroutine: it alone adopts new
// connections, moves the ring's cursors and recycles payload buffers.
//
// Each round writes the ack, if one is due, and every queued frame in one
// vectored write (net.Buffers): runs of frames coalesce into kindBatch
// frames whose 5-byte sub-headers live in a reused header arena and whose
// payloads are referenced in place from their pooled buffers — nothing is
// copied into a scratch frame buffer, and one writev replaces per-frame
// Write calls. Replay after a reconnect re-coalesces naturally: retention is
// per frame, and the receiver deduplicates by the sub-frames' implicit
// sequence numbers.
func (p *peer) sendLoop() {
	defer p.t.wg.Done()
	var conn *connIO
	var hdrs []byte   // header arena; pre-sized per round so slices into it stay valid
	var vecs [][]byte // iovec list, rebuilt per round
	coalesce := min(defaultCoalesce, p.t.cfg.MaxFrame)
	for {
		p.mu.Lock()
		switch p.state {
		case streaming:
		case replaying:
			// Adopt the new connection: what the peer received counts as
			// acknowledged, and everything after it goes out again.
			conn = p.conn
			p.setLocked(streaming, conn)
			p.ackedSeq = max(p.ackedSeq, p.peerRecv)
			p.recycleLocked()
			p.written = p.acked
		case retired:
			clear(p.ring)
			p.ring, p.acked, p.written = p.ring[:0], 0, 0
			fallthrough
		default:
			conn = nil
		}
		p.recycleLocked()
		if conn == nil || (p.written == len(p.ring) && !p.ackDue) {
			p.mu.Unlock()
			select {
			case <-p.notify:
			case <-p.t.closed:
				return
			}
			continue
		}
		end := len(p.ring)
		batch := p.ring[p.written:end]
		ackDue, ack := p.ackDue, p.recvSeq
		p.ackDue = false
		p.inFlight = true
		p.mu.Unlock()

		// Worst case every frame opens its own group (outer header + first
		// sub-header); sizing the arena up front means later appends never
		// reallocate, so the header slices already in vecs stay valid.
		if need := frameOverhead + 8 + (frameOverhead+subOverhead)*len(batch); cap(hdrs) < need {
			hdrs = make([]byte, 0, need)
		}
		hdrs = hdrs[:0]
		vecs = vecs[:0]
		if ackDue {
			// One cumulative ack, unnumbered, in the plain format.
			hdrs = binary.BigEndian.AppendUint64(appendHeader(hdrs, kindAck, 0, 8), ack)
			vecs = append(vecs, hdrs)
		}

		for i := 0; i < len(batch); {
			// A group is the longest run of frames from i that fits one
			// coalesced frame; a lone frame travels in the plain format.
			j, size := i+1, subOverhead+len(batch[i].data)
			for j < len(batch) && frameOverhead+1+8+size+subOverhead+len(batch[j].data) <= coalesce {
				size += subOverhead + len(batch[j].data)
				j++
			}
			off := len(hdrs)
			if j == i+1 {
				hdrs = appendHeader(hdrs, batch[i].kind, batch[i].seq, len(batch[i].data))
			} else {
				hdrs = appendHeader(hdrs, kindBatch, batch[i].seq, size)
			}
			for k, f := range batch[i:j] {
				if j > i+1 {
					// The outer header and the first sub-header share one
					// vec entry.
					if k > 0 {
						off = len(hdrs)
					}
					hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(1+len(f.data)))
					hdrs = append(hdrs, f.kind)
				}
				vecs = append(vecs, hdrs[off:])
				if len(f.data) > 0 {
					vecs = append(vecs, f.data)
				}
			}
			i = j
		}

		bufs := net.Buffers(vecs)
		_, err := bufs.WriteTo(conn.c)

		p.mu.Lock()
		p.written = end
		p.inFlight = false
		p.mu.Unlock()
		if err != nil {
			p.connBroken(conn)
			conn = nil
		}
	}
}

// recycleLocked moves acked past every frame the peer has acknowledged,
// recycling their payloads, and compacts the ring. An acked frame is never
// written again, so written moves with it. Only sendLoop calls it, between
// writes.
//
// The pool has to cover the whole in-flight window — queued, written,
// awaiting ack — or Send falls back to the allocator between ack
// roundtrips; freelist's rule sizes it to exactly that: every buffer of the
// window is taken again within an ack round or two, while what a burst (an
// all-at-once migration's state frames, a catch-up backlog) added on top, in
// count or in buffer size, ages out two ack rounds after the session last
// needed it.
func (p *peer) recycleLocked() {
	i := p.acked
	for ; i < len(p.ring) && p.ring[i].seq <= p.ackedSeq; i++ {
		if buf := p.ring[i].data; buf != nil {
			p.pool.Put(buf[:0], len(buf), cap(buf))
			p.ring[i].data = nil
		}
	}
	if i == p.acked {
		return
	}
	p.pool.Trim() // the pool's ack round
	p.acked, p.written = i, max(p.written, i)
	if i == len(p.ring) {
		p.ring, p.acked, p.written = p.ring[:0], 0, 0
	} else if i > 1024 && i > len(p.ring)-i {
		// Compact only when the dead prefix dominates, not on every ack:
		// the retained tail may be large.
		p.ring = p.ring[:copy(p.ring, p.ring[i:])]
		p.acked, p.written = 0, p.written-i
	}
}

// connBroken reacts to a read or write error on io: if io is still the
// peer's connection, tear it down and (on the dialing side) start
// reconnecting. The accepting side waits for the dialer.
func (p *peer) connBroken(io *connIO) {
	if p.t.isClosed() {
		return
	}
	p.mu.Lock()
	current := p.conn == io
	if current && p.dials {
		p.setLocked(connecting, nil)
		p.t.wg.Add(1)
		go p.redial()
	} else if current {
		p.setLocked(down, nil)
	}
	p.mu.Unlock()
	if current {
		p.poke()
		p.t.logf("transport: process %d: connection to peer %d broken", p.t.cfg.Index, p.index)
	}
}

// wantsDial is redial's loop condition: the session still awaits our dial.
func (p *peer) wantsDial() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == connecting && !p.t.isClosed()
}

// redial connects to the peer with exponential backoff, performs the
// handshake (carrying our receive cursor so the peer replays what we
// missed), and installs the connection. One runs while the session is
// connecting on the dialing side. It gives up — declaring the transport dead
// via fail, since the dataflow above cannot make progress without the
// session — only after DialTimeout of consecutive failures.
func (p *peer) redial() {
	defer p.t.wg.Done()
	t := p.t
	start := time.Now()
	backoff := 50 * time.Millisecond
	for p.wantsDial() {
		c, err := net.DialTimeout("tcp", t.cfg.Addrs[p.index], 2*time.Second)
		if err == nil {
			io := &connIO{c: c, br: bufio.NewReaderSize(c, 256<<10)}
			if err = p.handshakeDial(io); err == nil {
				return
			}
			c.Close()
			if err == errRetiredByPeer {
				// The peer retired us for good: nothing of ours will ever
				// be acked again, so stand the session down.
				p.mu.Lock()
				p.setLocked(retiredByPeer, nil)
				p.mu.Unlock()
				p.poke()
				t.logf("transport: process %d: peer %d has retired us; standing down", t.cfg.Index, p.index)
				return
			}
		}
		if time.Since(start) > t.cfg.DialTimeout {
			if p.wantsDial() {
				t.fail(fmt.Errorf("transport: process %d: cannot reach peer %d at %s after %v: %w",
					t.cfg.Index, p.index, t.cfg.Addrs[p.index], t.cfg.DialTimeout, err))
			}
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
	h := hello{ClusterID: t.cfg.ClusterID, From: t.cfg.Index, Procs: len(t.cfg.Addrs), RecvSeq: recv}
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
	isRetired := p.state == retired
	recv := p.recvSeq
	p.mu.Unlock()
	if isRetired {
		// Tell the dialer before closing: a retired process redialing us is
		// usually a leaver chasing the ack of its final frames, and without
		// the reject frame it cannot distinguish retirement from an outage
		// (it would redial until its dial timeout and panic).
		c.Write(AppendFrame(nil, kindReject, 0, []byte(rejectRetired)))
		return fmt.Errorf("dial from retired process %d at %s", h.From, remote)
	}
	ack := hello{ClusterID: t.cfg.ClusterID, From: t.cfg.Index, Procs: len(t.cfg.Addrs), RecvSeq: recv}
	if _, err := c.Write(AppendFrame(nil, kindHelloAck, 0, appendHello(nil, ack))); err != nil {
		return err
	}
	c.SetDeadline(time.Time{})
	p.install(io, h.RecvSeq)
	return nil
}

// install hands a fresh connection to the peer: the previous one is closed,
// the new one's receive loop starts, and the sender adopts it on its next
// round (which is when the frames past peerRecv are replayed).
func (p *peer) install(io *connIO, peerRecv uint64) {
	p.mu.Lock()
	// Checked under p.mu: shutdown closes t.closed before it takes each
	// peer's lock, so a connection installed here is one it will close.
	ok := p.state != retired && !p.t.isClosed()
	if ok {
		p.setLocked(replaying, io)
		p.peerRecv = peerRecv
	}
	p.mu.Unlock()
	if !ok {
		io.c.Close()
		return
	}
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
		if frames%ackEvery == 0 {
			fr.Trim() // the receive side's ack round
		}
		kind, seq, payload, err := fr.Next()
		if err != nil {
			p.connBroken(io)
			return
		}
		if kind == kindAck {
			if len(payload) == 8 {
				// Record the ack only: the sender recycles (see peer).
				p.mu.Lock()
				p.ackedSeq = max(p.ackedSeq, binary.BigEndian.Uint64(payload))
				p.mu.Unlock()
				p.poke()
			}
			continue
		}
		if !p.receive(io, kind, seq, payload) {
			return
		}
	}
}

// receive performs the receive step for one numbered frame, or for every
// sub-frame of a kindBatch frame (sub-frame i carries the implicit sequence
// number seq+i), under the dispatch lock, so receive loops of overlapping
// connection generations never process frames concurrently or out of order.
// A replayed prefix (from a reconnect whose ack died with the old
// connection) is deduplicated frame by frame and re-acknowledged once: the
// sender retains the frames — blocking its shutdown barrier — until some ack
// covers them. It reports false when the frame is corrupt or breaks the
// sequence (the connection is torn down; the caller's loop must exit).
func (p *peer) receive(io *connIO, kind byte, seq uint64, payload []byte) bool {
	p.dispatch.Lock()
	defer p.dispatch.Unlock()
	dup, ok := false, true
	if kind != kindBatch {
		ok = p.dispatchOne(io, kind, seq, payload, &dup)
	} else if err := forEachSub(seq, payload, func(seq uint64, kind byte, body []byte) bool {
		ok = p.dispatchOne(io, kind, seq, body, &dup)
		return ok
	}); err != nil {
		p.t.logf("transport: process %d: corrupt batch frame from peer %d: %v", p.t.cfg.Index, p.index, err)
		p.connBroken(io)
		return false
	}
	if ok && dup {
		p.mu.Lock()
		p.lastAck, p.ackDue = p.recvSeq, true
		p.mu.Unlock()
		p.poke()
	}
	return ok
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
	p.finRecvd = p.finRecvd || kind == kindFin
	needAck := seq-p.lastAck >= ackEvery || kind == kindFin
	if needAck {
		p.lastAck, p.ackDue = seq, true
	}
	p.mu.Unlock()
	if needAck {
		p.poke()
	}
	if kind >= KindUser && t.handler != nil {
		t.handler(p.index, kind, payload)
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
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if !p.outsideBarrierLocked() {
			p.sendSeq++
			p.finSeq = p.sendSeq
			p.ring = append(p.ring, frame{seq: p.finSeq, kind: kindFin})
		}
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
			drained := p.drainedLocked(waitPeerFin)
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

// outsideBarrierLocked reports a peer the shutdown barriers skip: a
// retired one (in either direction — a peer that retired us will never ack
// again), or an absent slot that never joined. The barrier re-evaluates it
// every pass, so a peer retired while we wait releases it.
func (p *peer) outsideBarrierLocked() bool {
	return p.state == absent || p.state == retired || p.state == retiredByPeer
}

// drainedLocked reports whether the shutdown barrier may release the peer:
// it acknowledged our FIN (so every frame we sent was received), its FIN
// arrived (so every frame it sent was handled — unless this is a one-sided
// leave), and nothing of ours — the ack included — is still queued or
// mid-write. In a one-sided leave a session that is down will never ack
// again — survivors retire a leaver on its goodbye and drop the connection,
// and when the peer owns the dialing there is no reject handshake to tell
// us so. The leaver verified application of everything it sent (probe past
// its hold epoch) before saying goodbye, so the unacknowledged tail is only
// the FIN formality.
func (p *peer) drainedLocked(waitPeerFin bool) bool {
	if p.outsideBarrierLocked() || (!waitPeerFin && p.state == down) {
		return true
	}
	return (p.finRecvd || !waitPeerFin) && p.ackedSeq >= p.finSeq &&
		p.written == len(p.ring) && !p.ackDue && !p.inFlight
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
				p.setLocked(down, nil)
			}
			p.mu.Unlock()
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
