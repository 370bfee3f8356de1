package dataflow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"megaphone/internal/binenc"
	"megaphone/internal/progress"
	"megaphone/internal/transport"
)

// ClusterSpec describes one process's membership in a multi-process
// execution: the address of every process and this process's index.
type ClusterSpec struct {
	// Hosts lists one TCP address per process, identical on every process.
	Hosts []string
	// Process is this process's index into Hosts.
	Process int
	// MaxFrame bounds one wire frame (transport.DefaultMaxFrame when 0).
	// Workers coalesce many exchanged batches into one frame, but a single
	// batch is never split, so MaxFrame must exceed the largest encoded
	// batch a worker can emit. A migrating bin is one batch of its own, so
	// MaxFrame must exceed the largest bin's encoding.
	MaxFrame int
	// CoalesceBytes caps how many encoded batch bytes a worker buffers per
	// destination process before flushing them as one data frame (default
	// 128 KiB, clamped under MaxFrame). Buffers also flush at every
	// scheduling boundary, so coalescing never delays a batch beyond the
	// scheduling that produced it.
	CoalesceBytes int
	// DialTimeout bounds connection establishment, covering peers that
	// start late (default 30s).
	DialTimeout time.Duration
	// Generation distinguishes successive executions on the same host list:
	// it is mixed into the handshake's cluster id, so a process still
	// draining execution N rejects (and lets retry) a connection from a
	// peer that already started execution N+1, instead of resuming the old
	// session's sequence numbers against the new session's retention
	// (which would lose frames). Drivers that run several executions in
	// sequence (cmd/experiments) increment it per run, identically on
	// every process; single-execution runs leave it zero.
	Generation uint64
	// Listener optionally pre-binds Hosts[Process] (tests use this to pick
	// free ports without a bind race).
	Listener net.Listener
	// Logf, when non-nil, receives transport lifecycle messages.
	Logf func(format string, args ...any)
	// Absent marks roster slots that are not part of the initial membership:
	// Hosts is the full fixed roster (including processes expected to join
	// later), Absent says which slots start empty. Present processes neither
	// dial nor wait for absent slots; a process whose own slot is marked
	// absent is a late joiner and dials every present peer itself. Nil means
	// all slots present (the static-cluster behavior).
	Absent []bool
	// MembershipEpoch is the membership view version this process believes
	// in when it handshakes. A late joiner is handed the current epoch out
	// of band (by the operator or harness); the value rides the hello so a
	// future admission check can refuse joiners with a stale view.
	MembershipEpoch uint64
}

// Frame kinds of the mesh protocol, layered on the transport's opaque user
// kinds. Per-peer FIFO matters: a scheduling's progress batch is enqueued
// before its data batches, so a remote process always accounts a message's
// pointstamp before it can observe the message.
const (
	kindProgress = transport.KindUser + 0 // one progress.Batch, applied atomically
	kindData     = transport.KindUser + 1 // one exchanged batch for one worker
	kindGraph    = transport.KindUser + 2 // graph digest, first frame per peer
	kindCtrl     = transport.KindUser + 3 // opaque control-plane frame (load telemetry, decisions)
)

// Mesh is the cross-process fabric of an execution: in-process workers keep
// the zero-copy channel path, remote workers are reached by serializing
// batches (via the per-edge wire codecs registered at Connect time) onto
// the framed TCP transport, and every worker scheduling's progress deltas
// are broadcast so all processes' trackers converge on the same frontiers.
//
// Join a mesh with JoinMesh, hand it to NewExecution via Config.Mesh, and
// use the execution exactly as in the single-process case. A mesh serves
// one execution; processes running several executions in sequence join a
// fresh mesh for each.
type Mesh struct {
	tr    *transport.Transport
	procs int
	proc  int
	exec  *Execution
	ready chan struct{} // closed at Execution.Start; gates inbound dispatch

	// Per-peer progress decode scratch, unguarded: the transport never
	// overlaps two handler calls for one peer.
	scratch []*progress.Batch

	// coalesce is the per-destination buffering threshold for outbound data
	// records (see ClusterSpec.CoalesceBytes).
	coalesce int

	// active[p] says whether roster slot p currently participates in the
	// dataflow. Broadcast paths (progress, graph digest, control) skip
	// inactive slots; point sends to them are a protocol violation that the
	// transport surfaces by dropping (retired) or queueing (absent). Flipped
	// by Activate/Retire under membership transitions, read concurrently by
	// every worker goroutine.
	activeInit []bool
	active     []atomic.Bool

	// retired[p] says slot p is gone for good (drain-left or declared dead),
	// as opposed to merely absent (a standby that may still join). Workers
	// consult it on the send path: a message for a retired slot is dropped at
	// the source with no progress delta — the transport would discard the
	// frame anyway, and a recorded pointstamp for it could never cancel (the
	// dead process will not consume the message), wedging the frontier at the
	// message's time forever. Pre-retirement sends to a crashed peer do leak
	// such phantom counts; the membership barrier's tracker rebuild wipes
	// those, and this flag keeps post-barrier sends (e.g. a migration that
	// straddled the death executing late) from minting new ones.
	retired []atomic.Bool

	// sentN/recvN count dataflow frames (progress, data, graph — not ctrl)
	// exchanged with each peer. The membership barrier uses their cluster-
	// wide sums as a Safra-style stability check: only when every member's
	// sent total equals the matching recv totals over consecutive control
	// rounds is the fabric quiescent enough to rebuild progress state.
	sentN []atomic.Uint64
	recvN []atomic.Uint64

	// finMode selects the shutdown barrier: 0 full FIN exchange, 1 leave
	// (one-sided FIN, don't wait for peers'), 2 abandon (close without
	// barrier — used when this process is declared dead or panicking).
	finMode atomic.Int32

	// ctrlMu serializes every control-plane dispatch: inbound frames from
	// different peers, and the drain of frames buffered before the handler
	// was registered. Control traffic is a few small frames per sampling
	// window, so one lock is cheaper than per-peer machinery.
	ctrlMu      sync.Mutex
	ctrlHandler func(from int, payload []byte)
	ctrlPending []ctrlFrame

	// fatalMu guards fatalErr (the transport's fatal failure, if any) and the
	// exec pointer's visibility to the fatal hook, which may fire before the
	// mesh is attached to an execution.
	fatalMu  sync.Mutex
	fatalErr error
}

// ctrlFrame is a control frame buffered before SetControlHandler; the
// payload is copied because the transport reuses its receive buffer.
type ctrlFrame struct {
	from    int
	payload []byte
}

// JoinMesh connects this process to its cluster: it binds the local
// listener, handshakes with every peer (retrying while they start), and
// returns once all sessions are up.
func JoinMesh(spec ClusterSpec) (*Mesh, error) {
	if len(spec.Hosts) < 2 {
		return nil, fmt.Errorf("dataflow: a cluster needs at least 2 hosts, got %d", len(spec.Hosts))
	}
	if spec.Process < 0 || spec.Process >= len(spec.Hosts) {
		return nil, fmt.Errorf("dataflow: process %d out of range for %d hosts", spec.Process, len(spec.Hosts))
	}
	if spec.Absent != nil && len(spec.Absent) != len(spec.Hosts) {
		return nil, fmt.Errorf("dataflow: Absent has %d entries for %d hosts", len(spec.Absent), len(spec.Hosts))
	}
	m := &Mesh{
		procs: len(spec.Hosts),
		proc:  spec.Process,
		ready: make(chan struct{}),
	}
	m.scratch = make([]*progress.Batch, len(spec.Hosts))
	for i := range m.scratch {
		m.scratch[i] = &progress.Batch{}
	}
	maxFrame := spec.MaxFrame
	if maxFrame <= 0 {
		maxFrame = transport.DefaultMaxFrame
	}
	m.coalesce = spec.CoalesceBytes
	if m.coalesce <= 0 {
		m.coalesce = 128 << 10
	}
	if lim := maxFrame - 64; m.coalesce > lim {
		m.coalesce = lim
	}
	m.activeInit = make([]bool, len(spec.Hosts))
	m.active = make([]atomic.Bool, len(spec.Hosts))
	m.retired = make([]atomic.Bool, len(spec.Hosts))
	m.sentN = make([]atomic.Uint64, len(spec.Hosts))
	m.recvN = make([]atomic.Uint64, len(spec.Hosts))
	for i := range m.activeInit {
		up := spec.Absent == nil || !spec.Absent[i]
		m.activeInit[i] = up
		m.active[i].Store(up)
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(spec.Hosts, ",")))
	clusterID := (h.Sum64() | 1) + spec.Generation*0x9e3779b97f4a7c15
	if clusterID == 0 {
		clusterID = 1 // 0 would make the transport re-derive it unsalted
	}
	tr, err := transport.Dial(transport.Config{
		Addrs:           spec.Hosts,
		Index:           spec.Process,
		ClusterID:       clusterID,
		MaxFrame:        spec.MaxFrame,
		DialTimeout:     spec.DialTimeout,
		Listener:        spec.Listener,
		Logf:            spec.Logf,
		Absent:          spec.Absent,
		MembershipEpoch: spec.MembershipEpoch,
		Fatal:           m.onFatal,
	}, m.onFrame)
	if err != nil {
		return nil, err
	}
	m.tr = tr
	return m, nil
}

// Procs returns the cluster's process count.
func (m *Mesh) Procs() int { return m.procs }

// Process returns this process's index.
func (m *Mesh) Process() int { return m.proc }

// initialActive returns the membership at execution start (roster minus the
// slots marked Absent). NewExecution seeds the time-0 membership view and
// the initial capability holds from it.
func (m *Mesh) initialActive() []bool {
	return append([]bool(nil), m.activeInit...)
}

// Activate marks roster slot p live: broadcast paths start including it.
// Called on every member (including the joiner itself, for its own slot is
// already live from its perspective) when a join commits.
func (m *Mesh) Activate(p int) { m.active[p].Store(true) }

// RetirePeer marks roster slot p gone — left or declared dead. Broadcast
// paths stop including it, the transport drops queued and future frames to
// it, stands down its redial loop, and the shutdown barrier stops waiting
// for its FIN. Irreversible for this execution (a returning process must
// rejoin under a new generation).
func (m *Mesh) RetirePeer(p int) {
	m.active[p].Store(false)
	m.retired[p].Store(true)
	m.tr.Retire(p)
}

// Retired reports whether roster slot p has been retired (vs. absent or
// live). Read by the worker send path; see the field comment.
func (m *Mesh) Retired(p int) bool { return m.retired[p].Load() }

// Leave switches this process's shutdown barrier to the one-sided variant:
// announce FIN and wait for the peers to ack our frames, but do not require
// their FINs (they keep running). Used by drain-leave.
func (m *Mesh) Leave() { m.finMode.Store(1) }

// Abandon switches this process's shutdown to an unceremonious close, no
// barrier at all. Crash-simulation fixtures use it to model SIGKILL without
// leaking the transport's goroutines into later tests.
func (m *Mesh) Abandon() { m.finMode.Store(2) }

// SetMembershipEpoch records the membership view version this process now
// believes in; future transport handshakes carry it.
func (m *Mesh) SetMembershipEpoch(e uint64) { m.tr.SetMembershipEpoch(e) }

// DataCounters snapshots the per-peer dataflow frame counters: sent[p] and
// recv[p] count progress/data/graph frames exchanged with slot p since the
// mesh joined. Counter reads are individually atomic but the snapshot is
// not; the membership barrier compensates by requiring cluster-wide sums to
// be stable across consecutive control rounds.
func (m *Mesh) DataCounters() (sent, recv []uint64) {
	sent = make([]uint64, m.procs)
	recv = make([]uint64, m.procs)
	for p := 0; p < m.procs; p++ {
		sent[p] = m.sentN[p].Load()
		recv[p] = m.recvN[p].Load()
	}
	return sent, recv
}

// BroadcastControl ships one opaque control-plane frame to every peer
// process. Control frames ride the same exactly-once per-peer-FIFO transport
// sessions as progress and data, but are invisible to the dataflow: the
// layer above (plan's cluster control plane) owns their encoding. Safe to
// call from any goroutine once the mesh is joined.
func (m *Mesh) BroadcastControl(payload []byte) {
	for p := 0; p < m.procs; p++ {
		if p == m.proc {
			continue
		}
		// Control reaches every connected peer, not just active dataflow
		// participants: a late joiner is connected (Joined) before the
		// membership barrier activates it, and the admission protocol itself
		// rides these frames.
		if m.active[p].Load() || m.tr.Joined(p) {
			m.tr.Send(p, kindCtrl, payload)
		}
	}
}

// SetControlHandler registers the sink for inbound control frames and
// delivers, in arrival order, any frames that arrived before registration.
// Buffering matters because control payloads are increments (load deltas):
// dropping the frames that race execution startup would permanently skew
// the receiver's view. The handler runs serialized — frames from all peers
// and the buffered backlog never overlap — on transport receive goroutines,
// so it must not block on dataflow progress.
func (m *Mesh) SetControlHandler(h func(from int, payload []byte)) {
	m.ctrlMu.Lock()
	defer m.ctrlMu.Unlock()
	m.ctrlHandler = h
	for _, f := range m.ctrlPending {
		h(f.from, f.payload)
	}
	m.ctrlPending = nil
}

// onFatal reacts to the transport dying irrecoverably (a peer unreachable
// past its dial timeout): record the cause and halt the local workers, which
// would otherwise wait forever for progress from the dead session. The run
// then unwinds through Execution.Wait and the error surfaces via Err.
func (m *Mesh) onFatal(err error) {
	m.fatalMu.Lock()
	if m.fatalErr == nil {
		m.fatalErr = err
	}
	e := m.exec
	m.fatalMu.Unlock()
	if e != nil {
		e.Halt()
	}
}

// Err returns the fatal transport error that killed this mesh, or nil.
func (m *Mesh) Err() error {
	m.fatalMu.Lock()
	err := m.fatalErr
	m.fatalMu.Unlock()
	if err != nil {
		return err
	}
	if m.tr != nil {
		return m.tr.Err()
	}
	return nil
}

// attach binds the mesh to its execution (called by NewExecution).
func (m *Mesh) attach(e *Execution) {
	m.fatalMu.Lock()
	if m.exec != nil {
		m.fatalMu.Unlock()
		panic("dataflow: mesh already attached to an execution (join a fresh mesh per execution)")
	}
	m.exec = e
	fatal := m.fatalErr
	m.fatalMu.Unlock()
	if fatal != nil {
		// The transport died between JoinMesh and the execution's build:
		// halting now (before Start) makes the workers exit immediately
		// instead of wedging on the dead fabric.
		e.Halt()
	}
}

// start announces this process's graph digest to every peer (the first
// frame it sends, ahead of any worker traffic) and releases inbound
// dispatch; the execution's tracker and edge codecs exist by now. The
// digest turns a cluster whose processes built different dataflows —
// divergent flags shift every canonical edge id, which would silently
// misroute or misdecode cross-process batches — into an immediate, clearly
// attributed failure at the receiver.
func (m *Mesh) start() {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], m.exec.graphDigest())
	for p := 0; p < m.procs; p++ {
		if p != m.proc && m.active[p].Load() {
			m.tr.Send(p, kindGraph, buf[:])
			m.sentN[p].Add(1)
		}
	}
	close(m.ready)
}

// graphDigest summarizes the canonical dataflow structure and worker
// topology for the cross-process identity check.
func (e *Execution) graphDigest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(e.totalWorkers))
	put(uint64(e.cfg.Workers))
	put(uint64(len(e.canonNodes)))
	for _, n := range e.canonNodes {
		put(uint64(n.in)<<32 | uint64(n.out))
	}
	for _, ed := range e.canonEdges {
		put(uint64(ed.dst.Node)<<32 | uint64(ed.dst.Port))
	}
	return h.Sum64()
}

// finish runs the cluster-wide shutdown barrier after the local workers
// drained: announce FIN, wait for every peer's FIN (by which point all
// their frames have been handled), and close the transport. A process that
// called Leave runs the one-sided variant (peers keep running); one that
// called Abandon just closes.
func (m *Mesh) finish() {
	if m.Err() != nil {
		// The transport already died; there is no barrier left to run. The
		// cause reaches the caller through Execution.Err, not a panic.
		m.tr.Close()
		return
	}
	switch m.finMode.Load() {
	case 2:
		m.tr.Close()
	case 1:
		if err := m.tr.FinishLeave(60 * time.Second); err != nil {
			if m.tr.Err() != nil {
				return // died mid-barrier; surfaced via Err
			}
			panic(err)
		}
	default:
		if err := m.tr.Finish(60 * time.Second); err != nil {
			if m.tr.Err() != nil {
				return
			}
			panic(err)
		}
	}
}

// onFrame dispatches one inbound frame. It runs on a transport receive
// goroutine; frames from one peer arrive in FIFO order, one at a time, so a
// worker's progress deltas are always applied before the data they cover
// and its delta batches apply in generation order.
//
//megalint:hotpath
func (m *Mesh) onFrame(from int, kind byte, payload []byte) {
	<-m.ready
	if kind != kindCtrl {
		m.recvN[from].Add(1)
	}
	e := m.exec
	switch kind {
	case kindGraph:
		theirs := binary.BigEndian.Uint64(payload)
		if ours := e.graphDigest(); theirs != ours {
			panic(fmt.Sprintf("dataflow: process %d built a different dataflow graph (digest %016x, ours %016x): every process of a cluster must run with identical configuration apart from its process index",
				from, theirs, ours))
		}
	case kindProgress:
		b := m.scratch[from]
		if err := b.DecodeWire(payload); err != nil {
			panic(fmt.Sprintf("dataflow: corrupt progress frame from process %d: %v", from, err))
		}
		e.tracker.Apply(b)
	case kindData:
		// One data frame carries a run of coalesced records, each
		// [worker][edge][time][len][payload] with uvarint header fields.
		for len(payload) > 0 {
			worker, rest, err := binenc.Uvarint(payload)
			if err == nil {
				var edge, tm, n uint64
				if edge, rest, err = binenc.Uvarint(rest); err == nil {
					if tm, rest, err = binenc.Uvarint(rest); err == nil {
						if n, rest, err = binenc.Uvarint(rest); err == nil {
							if n > uint64(len(rest)) {
								//megalint:allow hotalloc corrupt-frame error path; panics below
								err = fmt.Errorf("record of %d bytes exceeds frame remainder %d", n, len(rest))
							} else {
								err = m.deliverData(int(worker), progress.Edge(edge), Time(tm), rest[:n])
								payload = rest[n:]
							}
						}
					}
				}
			}
			if err != nil {
				panic(fmt.Sprintf("dataflow: corrupt data frame from process %d: %v", from, err))
			}
		}
	case kindCtrl:
		m.ctrlMu.Lock()
		if m.ctrlHandler == nil {
			// The transport recycles payload after this call returns, so the
			// backlog keeps its own copy.
			//megalint:allow hotalloc control frames only queue before handler registration, a startup-only window
			cp := append([]byte(nil), payload...)
			m.ctrlPending = append(m.ctrlPending, ctrlFrame{from: from, payload: cp})
		} else {
			m.ctrlHandler(from, payload)
		}
		m.ctrlMu.Unlock()
	default:
		panic(fmt.Sprintf("dataflow: unknown mesh frame kind %d from process %d", kind, from))
	}
}

// deliverData decodes one exchanged batch and routes it to the owning local
// worker's inbox. The decoded batch is freshly allocated (the wire payload
// is transient), so ownership passes to the receiving operator as with the
// in-process path.
//
//megalint:hotpath
func (m *Mesh) deliverData(worker int, edge progress.Edge, t Time, payload []byte) error {
	e := m.exec
	li := worker - e.firstGlobal
	if li < 0 || li >= len(e.workers) {
		//megalint:allow hotalloc corrupt-frame error path; the caller panics on it
		return fmt.Errorf("worker %d is not local to process %d", worker, m.proc)
	}
	if int(edge) >= len(e.edgeCodecs) || e.edgeCodecs[edge].dec == nil {
		//megalint:allow hotalloc corrupt-frame error path; the caller panics on it
		return fmt.Errorf("edge %d has no wire codec", edge)
	}
	data, err := e.edgeCodecs[edge].dec(payload)
	if err != nil {
		//megalint:allow hotalloc corrupt-frame error path; the caller panics on it
		return fmt.Errorf("edge %d payload: %w", edge, err)
	}
	w := e.workers[li]
	w.inbox <- message{edge: edge, time: t, data: data}
	w.poke()
	return nil
}

// sendRemote stages one outbound message for a remote worker: the batch is
// serialized with its edge's wire codec into the worker-owned scratch
// buffer and appended — behind a compact record header — to the worker's
// coalescing buffer for the destination process. The buffer is flushed as
// one multi-record frame when it reaches the mesh's coalescing threshold or,
// at the latest, at the end of the scheduling that produced it (so
// coalescing adds no latency and buffers are always empty between
// schedulings, which the membership barrier's quiescence check relies on).
// Every edge that gets here has a codec: Connect refuses, at build, a
// partitioned edge in a mesh whose records have none.
//
//megalint:hotpath
func (w *Worker) sendRemote(m outMsg) {
	e := w.exec
	edge := m.msg.edge
	rec := e.edgeCodecs[edge].enc(m.msg.data, w.wireBuf.B[:0])
	w.wireBuf.B = rec
	w.wireBuf.Note(len(rec))
	releaseAny(w, m.msg.data) // the remote's reference: encoded, copy owned by us
	dst := m.peer / e.cfg.Workers
	buf := w.coalBuf[dst].B
	if len(buf) > 0 && len(buf)+len(rec)+4*binary.MaxVarintLen64 > e.mesh.coalesce {
		w.flushRemote(dst)
		buf = w.coalBuf[dst].B
	}
	if len(buf) == 0 {
		w.coalDirty = append(w.coalDirty, dst)
	}
	buf = binenc.AppendUvarint(buf, uint64(m.peer))
	buf = binenc.AppendUvarint(buf, uint64(edge))
	buf = binenc.AppendUvarint(buf, uint64(m.msg.time))
	buf = binenc.AppendUvarint(buf, uint64(len(rec)))
	buf = append(buf, rec...)
	w.coalBuf[dst].B = buf
}

// flushRemote ships this worker's coalescing buffer for process dst as one
// data frame. The transport copies the payload into pooled frame storage,
// so the buffer is immediately reusable.
//
//megalint:hotpath
func (w *Worker) flushRemote(dst int) {
	cb := &w.coalBuf[dst]
	if len(cb.B) == 0 {
		return
	}
	e := w.exec
	e.mesh.tr.Send(dst, kindData, cb.B)
	e.mesh.sentN[dst].Add(1)
	cb.Note(len(cb.B))
	cb.B = cb.B[:0]
}

// flushRemotes flushes every destination staged during the current
// scheduling, in first-touched order.
//
//megalint:hotpath
func (w *Worker) flushRemotes() {
	for _, dst := range w.coalDirty {
		w.flushRemote(dst)
	}
	w.coalDirty = w.coalDirty[:0]
}

// broadcastProgress ships one scheduling's (already coalesced) progress
// batch to every remote process. It must run before the scheduling's remote
// data flush: per-peer FIFO then guarantees every receiver accounts the
// produced pointstamps before it can observe the messages.
//
//megalint:hotpath
func (w *Worker) broadcastProgress(b *progress.Batch) {
	e := w.exec
	if !e.mesh.active[e.mesh.proc].Load() {
		// A joiner that has not been admitted yet keeps its progress local:
		// the members' trackers never accounted its initial holds, so its
		// deltas would corrupt their frontiers. The membership barrier
		// rebuilds every tracker from explicit inventories at admission.
		return
	}
	buf := w.progBuf[:0]
	buf = b.AppendWire(buf)
	w.progBuf = buf
	for p := 0; p < e.mesh.procs; p++ {
		if p == e.mesh.proc || !e.mesh.active[p].Load() {
			continue
		}
		e.mesh.tr.Send(p, kindProgress, buf)
		e.mesh.sentN[p].Add(1)
	}
}
