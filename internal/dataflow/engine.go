// Package dataflow is a timely-dataflow-style streaming runtime: a fixed
// dataflow graph of operators is instantiated on every worker, records flow
// along exchange channels carrying logical timestamps, and a shared progress
// tracker (internal/progress) reports to every operator input a frontier of
// timestamps that may still arrive.
//
// The package reproduces the subset of timely dataflow that Megaphone
// depends on: asynchronous data-parallel workers, logical timestamps,
// frontiers, capability holds, exchange/pipeline/broadcast channel contracts
// ("pacts"), inputs with epochs, and probes for out-of-band frontier
// observation. Dataflows are acyclic and operators never advance message
// timestamps, which keeps the progress summary exact.
//
// Workers are goroutines; cross-worker channels within a process are Go
// channels. With a Mesh (Config.Mesh) one dataflow spans several OS
// processes: remote edges serialize through per-edge wire codecs onto a
// framed TCP transport and progress deltas are broadcast so every process's
// tracker converges. See DESIGN.md for why the in-process substitution
// preserves the paper's behaviour and for the mesh's ordering guarantees.
package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"

	"megaphone/internal/freelist"
	"megaphone/internal/progress"
	"megaphone/internal/timestamp"
)

// Time is the logical timestamp carried by every record batch.
type Time = timestamp.Scalar

// None is the frontier value meaning "no further timestamps": the port or
// computation has completed.
const None = timestamp.MaxScalar

// Config configures an execution.
type Config struct {
	// Workers is the number of worker goroutines in this process. Defaults
	// to 1. With a Mesh, every process contributes Workers workers and the
	// execution spans Workers * Mesh.Procs() data-parallel workers.
	Workers int
	// InboxSize is the per-worker channel buffer, in batches. Defaults to
	// 4096.
	InboxSize int
	// Mesh, when non-nil, spreads the execution across OS processes: this
	// process runs workers [Process*Workers, (Process+1)*Workers) of the
	// global index space, cross-process edges serialize through the
	// transport, and progress deltas are broadcast so every process's
	// tracker converges. nil keeps today's single-process execution.
	Mesh *Mesh
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.InboxSize <= 0 {
		c.InboxSize = 4096
	}
}

// message is one timestamped batch of records in flight to a worker.
type message struct {
	edge progress.Edge
	time Time
	data any // a []T, owned by the receiver
}

// canonEdge is the canonical (worker-independent) description of an edge.
type canonEdge struct {
	dst progress.Port
}

// Execution owns a dataflow computation: the shared graph summary, the
// tracker, and the workers. Build the graph with Build, start the workers
// with Start, drive any inputs, and Wait for completion.
type Execution struct {
	cfg     Config
	gb      *progress.GraphBuilder
	tracker *progress.Tracker
	workers []*Worker // this process's workers, indexed by local position

	// Multi-process state: nil mesh means totalWorkers == cfg.Workers and
	// firstGlobal == 0, i.e. exactly the single-process execution.
	mesh         *Mesh
	totalWorkers int
	firstGlobal  int         // global index of workers[0]
	edgeCodecs   []wireCodec // per canonical edge, registered by Connect

	// canonical structure, registered by worker 0 and verified by others
	canonNodes []struct{ in, out int }
	canonEdges []canonEdge

	pendingHolds []pendingHold

	// Membership views: which processes' workers are live, per timestamp
	// range. Immutable snapshots swapped atomically; see InstallView.
	views atomic.Pointer[[]memView]

	// Pause/halt machinery for membership barriers (see Pause, Halt).
	pauseMu   sync.Mutex
	pauseCond *sync.Cond
	pauseReq  atomic.Bool
	pausedN   int
	halted    atomic.Bool

	started bool
	wg      sync.WaitGroup
}

// memView is one membership view: from time `from` onward, workers of
// process p participate iff active[p]. Partitioners consult the view for
// the timestamp they are sending at, so a reconfiguration commits at a
// chosen epoch boundary rather than at some racy wall-clock instant.
type memView struct {
	from    Time
	active  []bool // per process
	workers []int  // global indices of workers on active processes
	wpp     int    // workers per process
	full    bool   // every process active (fast path)
}

// workerActive reports whether global worker index w participates.
func (v *memView) workerActive(w int) bool {
	return v.full || v.active[w/v.wpp]
}

// viewAt returns the membership view governing sends at time t.
func (e *Execution) viewAt(t Time) *memView {
	vs := *e.views.Load()
	for i := len(vs) - 1; i > 0; i-- {
		if t >= vs[i].from {
			return &vs[i]
		}
	}
	return &vs[0]
}

// makeView assembles a view snapshot from a per-process activity vector.
func (e *Execution) makeView(from Time, active []bool) memView {
	procs := 1
	if e.mesh != nil {
		procs = e.mesh.procs
	}
	if len(active) != procs {
		panic(fmt.Sprintf("dataflow: view names %d processes, cluster has %d", len(active), procs))
	}
	v := memView{from: from, active: append([]bool(nil), active...), wpp: e.cfg.Workers, full: true}
	for p, a := range v.active {
		if !a {
			v.full = false
			continue
		}
		for i := 0; i < e.cfg.Workers; i++ {
			v.workers = append(v.workers, p*e.cfg.Workers+i)
		}
	}
	if len(v.workers) == 0 {
		panic("dataflow: membership view with no active process")
	}
	return v
}

// InstallView declares that from time `from` onward the workers of process
// p participate iff active[p]. Every process must install the same view
// before any worker sends at a time >= from (the membership protocol
// chooses `from` with a margin beyond every input's current epoch, exactly
// like migration commit times). Views must be installed in increasing
// `from` order; reinstalling the current boundary replaces it.
func (e *Execution) InstallView(from Time, active []bool) {
	nv := e.makeView(from, active)
	for {
		old := e.views.Load()
		vs := *old
		last := vs[len(vs)-1]
		if from < last.from {
			panic(fmt.Sprintf("dataflow: view at %v installed after view at %v", from, last.from))
		}
		next := make([]memView, len(vs), len(vs)+1)
		copy(next, vs)
		if from == last.from {
			next[len(next)-1] = nv
		} else {
			next = append(next, nv)
		}
		if e.views.CompareAndSwap(old, &next) {
			return
		}
	}
}

// NewExecution creates an execution with the given configuration.
func NewExecution(cfg Config) *Execution {
	cfg.defaults()
	e := &Execution{cfg: cfg, gb: progress.NewGraphBuilder()}
	e.pauseCond = sync.NewCond(&e.pauseMu)
	e.totalWorkers = cfg.Workers
	var act []bool
	if cfg.Mesh != nil {
		cfg.Mesh.attach(e)
		e.mesh = cfg.Mesh
		e.totalWorkers = cfg.Workers * cfg.Mesh.procs
		e.firstGlobal = cfg.Mesh.proc * cfg.Workers
		act = cfg.Mesh.initialActive()
	} else {
		act = []bool{true}
	}
	views := []memView{e.makeView(0, act)}
	e.views.Store(&views)
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{
			exec:  e,
			index: e.firstGlobal + i,
			local: i,
			inbox: make(chan message, cfg.InboxSize),
			wake:  make(chan struct{}, 1),
		}
		if e.mesh != nil {
			w.coalBuf = make([]freelist.Buf, e.mesh.procs)
		}
		w.ctx.w = w
		e.workers = append(e.workers, w)
	}
	return e
}

// Build runs the graph constructor once per worker. The constructor must be
// deterministic: every worker must declare the same operators and edges in
// the same order. Worker 0's run registers the canonical structure; later
// runs are verified against it.
func (e *Execution) Build(build func(w *Worker)) {
	if e.started {
		panic("dataflow: Build after Start")
	}
	for _, w := range e.workers {
		build(w)
	}
	e.tracker = e.gb.Build()
	// Initial holds were recorded against port coordinates before the
	// tracker existed; resolve them to locations and apply. In a mesh,
	// every process's tracker must account the initial holds of all
	// processes' worker instances; the graph build is deterministic and
	// identical everywhere, so each process scales its own holds by the
	// count of *initially active* processes instead of exchanging them
	// (absent roster slots contribute nothing until they join, at which
	// point the membership barrier rebuilds every tracker from exchanged
	// inventories — see HoldInventory).
	procs := 1
	if e.mesh != nil {
		procs = 0
		for _, a := range e.mesh.initialActive() {
			if a {
				procs++
			}
		}
		e.tracker.TolerateNegativeCounts()
	}
	var b progress.Batch
	for _, h := range e.pendingHolds {
		b.Add(e.tracker.CapLocation(h.port), h.time, procs)
	}
	e.tracker.Apply(&b)
	for _, w := range e.workers {
		w.finalize()
	}
}

// Tracker exposes the progress tracker.
//
//megalint:allow unreached test support: sched_test.go dumps it on a drain deadlock, input_test.go checks it idle
func (e *Execution) Tracker() *progress.Tracker { return e.tracker }

// Start launches the worker goroutines.
func (e *Execution) Start() {
	if e.tracker == nil {
		panic("dataflow: Start before Build")
	}
	e.started = true
	if e.mesh != nil {
		e.mesh.start()
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *Worker) {
			defer e.wg.Done()
			w.run()
		}(w)
	}
}

// Wait blocks until the computation completes: all inputs closed, all
// messages drained, and all capability holds dropped. In a mesh this spans
// the whole cluster — the local tracker only drains once every process's
// deltas cancelled — and Wait additionally runs the cross-process shutdown
// barrier before returning, so the transport is closed afterwards.
func (e *Execution) Wait() {
	e.wg.Wait()
	if e.mesh != nil {
		e.mesh.finish()
	}
}

// Err reports the fatal cross-process fabric error that aborted this
// execution, if any: a peer session unreachable past its dial timeout kills
// the transport, halts the local workers (so Wait returns instead of
// wedging) and lands here. Nil for single-process executions and for runs
// that completed or shut down in an orderly way. Check it after Wait.
func (e *Execution) Err() error {
	if e.mesh == nil {
		return nil
	}
	return e.mesh.Err()
}

// Pause parks every local worker at a safe point and returns once all are
// parked: no operator logic is running, so operator-owned state (capability
// holds in particular) may be read by the caller without races. Workers stay
// parked until Resume. Pause is the local half of a cluster-wide membership
// barrier: it is only meaningful once the processes have also drained data
// in flight among themselves (frontier at the agreed epoch, wire counters
// stable), which the membership protocol establishes before calling it.
func (e *Execution) Pause() {
	e.pauseReq.Store(true)
	for _, w := range e.workers {
		w.poke()
	}
	e.pauseMu.Lock()
	for e.pausedN < len(e.workers) {
		e.pauseCond.Wait()
	}
	e.pauseMu.Unlock()
}

// Resume releases workers parked by Pause and waits until all have left the
// pause point.
func (e *Execution) Resume() {
	e.pauseMu.Lock()
	e.pauseReq.Store(false)
	e.pauseCond.Broadcast()
	for e.pausedN > 0 {
		e.pauseCond.Wait()
	}
	e.pauseMu.Unlock()
	for _, w := range e.workers {
		w.poke()
	}
}

// Halt makes every local worker exit its run loop regardless of tracker
// state. A leaving process cannot wait for the global computation to drain
// (it runs on without us); Halt is its local exit, and the crash fixtures'
// stand-in for process death. Do not call while workers are parked in Pause
// (Resume first).
func (e *Execution) Halt() {
	e.halted.Store(true)
	for _, w := range e.workers {
		w.poke()
	}
}

// HoldInventory appends one (+1) delta per live capability hold of this
// process's operator instances — the process's genuine contribution to the
// global pointstamp multiset at quiescence (messages in flight and queued
// batches are excluded, but at a membership barrier there are none). Must
// be called while workers are parked in Pause; holds are worker-owned.
func (e *Execution) HoldInventory(b *progress.Batch) {
	for _, w := range e.workers {
		for _, op := range w.ops {
			for port, h := range op.holds {
				if h != None {
					b.Add(e.tracker.CapLocation(progress.Port{Node: op.node, Port: port}), h, 1)
				}
			}
		}
	}
}

// PurgeDeferred invokes every local operator's registered purge (see
// OpBuilder.OnPurge) with the given cut, rewriting each operator's capability
// holds to what the purge returns. Must be called while workers are parked in
// Pause and must be followed by ResetProgress: holds are rewritten without
// progress deltas, which only the subsequent tracker rebuild can account.
func (e *Execution) PurgeDeferred(cut Time) {
	for _, w := range e.workers {
		for _, op := range w.ops {
			if op.purge == nil {
				continue
			}
			holds := op.purge(cut)
			if len(holds) != op.numOut {
				panic(fmt.Sprintf("dataflow: %s purge returned %d holds for %d output ports", op.name, len(holds), op.numOut))
			}
			op.holdCount = 0
			for port, h := range holds {
				op.holds[port] = h
				if h != None {
					op.holdCount++
				}
			}
		}
	}
}

// AppliedBounds reports the applied bound of every local worker, keyed by
// global worker index: the minimum over the worker's operators that
// registered one (see OpBuilder.OnBound). Workers without a bound-reporting
// operator are absent from the map. Must be called while workers are parked
// in Pause: bounds are operator state.
func (e *Execution) AppliedBounds() map[int]Time {
	out := make(map[int]Time)
	for _, w := range e.workers {
		for _, op := range w.ops {
			if op.bound == nil {
				continue
			}
			b := op.bound()
			if cur, ok := out[w.index]; !ok || b < cur {
				out[w.index] = b
			}
		}
	}
	return out
}

// Retained is what one process's recycling pools hold at an instant, in
// bytes: memory kept for reuse, not memory in use.
type Retained struct {
	Envelopes []int64 // per local worker: batch-envelope free lists
	Scratch   []int64 // per local worker: mesh encode scratch, as of the worker's last trim
	Transport int64   // the mesh transport's frame-payload pools, all peers
}

// Retained snapshots the recycling pools' byte counters. Safe to call from
// any goroutine while the execution runs.
//
//megalint:allow unreached test support: the retention bounds of mesh_test.go and core's memory_test.go
func (e *Execution) Retained() Retained {
	var r Retained
	for _, w := range e.workers {
		r.Envelopes = append(r.Envelopes, w.envRetained.Load())
		r.Scratch = append(r.Scratch, w.scratchRetained.Load())
	}
	if e.mesh != nil {
		r.Transport = e.mesh.tr.PoolBytes()
	}
	return r
}

// ResetProgress rebuilds the local tracker from a summed inventory batch
// (see progress.Tracker.ResetCounts) and re-dirties every worker.
func (e *Execution) ResetProgress(b *progress.Batch) {
	e.tracker.ResetCounts(b)
	for _, w := range e.workers {
		w.poke()
	}
}

// poller reports pending out-of-band work (e.g. staged input) for one
// operator, so the worker can activate exactly that operator.
type poller struct {
	op      *opInstance
	pending func() bool
}

// pendingWatch defers an out-of-band frontier watch until the tracker
// exists (WatchFrontier is called during graph construction).
type pendingWatch struct {
	node progress.Node
	port progress.Port
}

// Worker is one data-parallel worker: it owns an instance of every operator
// in the dataflow and an inbox for batches sent to it by peers.
//
// Scheduling is dirty-set driven: an operator runs only when it was
// activated — it has queued input, the frontier of one of its input ports
// changed since it last computed frontiers (detected by comparing the
// tracker's per-port epochs, without locking), an out-of-band poller (staged
// input) reports work, or a watched port's frontier moved while the operator
// holds a capability. The sweep that detects activations still visits every
// operator (a few atomic loads each), but the expensive part of a wakeup —
// running logic, recomputing frontiers under the lock, applying deltas — is
// proportional to what actually changed rather than to the graph size.
type Worker struct {
	exec  *Execution
	index int // global worker index (equal to local in single-process runs)
	local int // position within this process's workers

	ops     []*opInstance // indexed by node id
	inbox   chan message
	wake    chan struct{}
	pollers []poller
	nodeSeq int // build-time counter for canonical verification
	edgeSeq int

	activeQ []*opInstance // FIFO of activated operators
	ctx     OpCtx         // reusable scheduling context (batch/remote/local scratch)

	wireBuf freelist.Buf // reusable cross-process record encode scratch
	progBuf []byte       // reusable cross-process progress frame scratch

	// Cross-process coalescing state (mesh executions only): per destination
	// process, encoded records staged during the current scheduling, flushed
	// as one frame at the scheduling boundary or the size threshold.
	// coalDirty lists the destinations touched this scheduling.
	coalBuf   []freelist.Buf
	coalDirty []int

	// Recycled batch envelopes, one free list per element type (see
	// batch.go). Only this worker's goroutine touches them (or whoever holds
	// it parked in Pause). scheds counts schedulings since the last trim;
	// the two counters are what the free lists and the encode scratch hold,
	// in bytes, readable from any goroutine (Execution.Retained).
	envPools        []envPool
	scheds          int
	envRetained     atomic.Int64
	scratchRetained atomic.Int64

	pendingWatches []pendingWatch
}

// Index returns this worker's global index in [0, Peers).
func (w *Worker) Index() int { return w.index }

// Peers returns the number of workers across all processes.
func (w *Worker) Peers() int { return w.exec.totalWorkers }

// InMesh reports whether the worker's execution spans several processes,
// so that exchanged records and migrating state may leave the process.
func (w *Worker) InMesh() bool { return w.exec.mesh != nil }

// poke wakes the worker if it is parked.
//
//megalint:hotpath
func (w *Worker) poke() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// finalize resolves scheduling state that needs the frozen graph: dense
// port ids for epoch comparisons and deferred frontier watches.
func (w *Worker) finalize() {
	tr := w.exec.tracker
	for _, op := range w.ops {
		op.finalize(w)
		op.portIDs = op.portIDs[:0]
		for i := 0; i < op.numIn; i++ {
			op.portIDs = append(op.portIDs, tr.PortID(progress.Port{Node: op.node, Port: i}))
		}
		op.seenEpoch = make([]uint64, op.numIn)
		op.fdirty = true
	}
	for _, pw := range w.pendingWatches {
		op := w.ops[pw.node]
		op.watchIDs = append(op.watchIDs, tr.PortID(pw.port))
		op.watchSeen = append(op.watchSeen, 0)
	}
	w.pendingWatches = nil
}

// WatchFrontier registers an out-of-band frontier dependency: the operator
// that produces s is re-activated whenever the frontier at probe p's port
// may have moved, for as long as the operator holds a capability. Operators
// whose logic consults a probe (Megaphone's F waits for the S output
// frontier before shipping state) need this; dirty-set scheduling would
// otherwise never re-run them when only the probed frontier changed.
func (w *Worker) WatchFrontier(s StreamCore, p *Probe) {
	if s.w != w {
		panic("dataflow: WatchFrontier with a stream from a different worker")
	}
	w.pendingWatches = append(w.pendingWatches, pendingWatch{node: s.src.Node, port: p.port})
}

// activate queues op for scheduling if it is not already queued.
//
//megalint:hotpath
func (w *Worker) activate(op *opInstance) {
	if !op.active {
		op.active = true
		w.activeQ = append(w.activeQ, op)
	}
}

// route places an inbound message on the owning operator's input queue and
// activates the operator.
//
//megalint:hotpath
func (w *Worker) route(m message) {
	dst := w.exec.canonEdges[m.edge].dst
	op := w.ops[dst.Node]
	op.queues[dst.Port] = append(op.queues[dst.Port], batchIn{time: m.time, data: m.data})
	w.activate(op)
}

// drainInbox moves all currently queued inbound messages to operator queues.
//
//megalint:hotpath
func (w *Worker) drainInbox() bool {
	any := false
	for {
		select {
		case m := <-w.inbox:
			w.route(m)
			any = true
		default:
			return any
		}
	}
}

// sweep activates operators with out-of-band or frontier-driven work: input
// operators whose poller reports staged records, operators whose input-port
// epochs moved since their frontiers were last computed, and
// capability-holding operators whose watched ports moved. It reads only the
// tracker's atomics — no locks. Reports whether anything was activated.
//
//megalint:hotpath
func (w *Worker) sweep() bool {
	tr := w.exec.tracker
	any := false
	for i := range w.pollers {
		if w.pollers[i].pending() && !w.pollers[i].op.active {
			w.activate(w.pollers[i].op)
			any = true
		}
	}
	for _, op := range w.ops {
		if !op.fdirty {
			for j, id := range op.portIDs {
				if tr.PortEpoch(id) != op.seenEpoch[j] {
					op.fdirty = true
					break
				}
			}
		}
		if op.fdirty && !op.active {
			w.activate(op)
			any = true
		}
		if op.holdCount > 0 {
			for j, id := range op.watchIDs {
				if e := tr.PortEpoch(id); e != op.watchSeen[j] {
					op.watchSeen[j] = e
					if !op.active {
						w.activate(op)
						any = true
					}
				}
			}
		}
	}
	return any
}

// run is the worker event loop: drain inbound batches, run the activated
// operators (running one may activate others), and park until new work can
// exist. The loop exits when the tracker reports no live pointstamps
// anywhere.
// pausePoint parks the worker inside Pause's barrier until Resume.
func (w *Worker) pausePoint() {
	e := w.exec
	e.pauseMu.Lock()
	e.pausedN++
	e.pauseCond.Broadcast()
	for e.pauseReq.Load() {
		e.pauseCond.Wait()
	}
	e.pausedN--
	e.pauseCond.Broadcast()
	e.pauseMu.Unlock()
}

func (w *Worker) run() {
	tr := w.exec.tracker
	for {
		if w.exec.halted.Load() {
			return
		}
		if w.exec.pauseReq.Load() {
			w.pausePoint()
			continue
		}
		w.drainInbox()
		w.sweep()
		for i := 0; i < len(w.activeQ); i++ {
			op := w.activeQ[i]
			op.active = false
			w.schedule(op)
		}
		w.scheds += len(w.activeQ)
		w.activeQ = w.activeQ[:0]
		if w.scheds >= trimEvery {
			w.scheds = 0
			w.trim()
		}
		v, idle := tr.Snapshot()
		if idle {
			return
		}
		// Park. Register the wake latch before the re-checks so a progress
		// change between a check and the select is not lost: any effective
		// Apply after registration pokes it. A stale latched token only
		// causes one harmless extra loop.
		tr.Notify(w.wake)
		moved := w.drainInbox()
		if w.sweep() {
			moved = true
		}
		if v2, _ := tr.Snapshot(); moved || v2 != v {
			continue
		}
		select {
		case m := <-w.inbox:
			w.route(m)
		case <-w.wake:
		}
	}
}

// trimEvery is the worker's ageing clock: its free lists and encode scratch
// end an interval (freelist's rule) every trimEvery operator schedulings. A
// steady dataflow schedules around ten operators per epoch, so an interval
// spans tens of epochs — every buffer the steady state cycles is taken many
// times per interval — and the clock stops with the worker: an idle dataflow
// keeps what it last used.
const trimEvery = 256

// trim ends an ageing interval for everything this worker recycles. It runs
// between schedulings, when the coalescing buffers are empty.
func (w *Worker) trim() {
	for i := range w.envPools {
		w.envPools[i].free.Trim()
	}
	held := w.wireBuf.Trim()
	for i := range w.coalBuf {
		held += w.coalBuf[i].Trim()
	}
	w.scratchRetained.Store(int64(held))
}

// schedule runs one operator's logic with a context exposing its queued
// input, input frontiers, and output ports, then atomically applies the
// progress consequences and releases any cross-worker sends.
//
// Frontiers are recomputed (one tracker lock) only when an input port's
// epoch moved since the last computation; otherwise the cached values are
// exact. The context's delta batch and send buffers are reused across
// schedulings, so a steady-state scheduling performs one lock acquisition
// (the Apply) and no allocations.
//
//megalint:hotpath
func (w *Worker) schedule(op *opInstance) {
	tr := w.exec.tracker
	if op.fdirty {
		// Record epochs before reading frontiers: a concurrent change lands
		// either in the values read (harmless) or in a later epoch bump that
		// re-dirties the operator.
		for j, id := range op.portIDs {
			op.seenEpoch[j] = tr.PortEpoch(id)
		}
		op.fcache = tr.Frontiers(op.node, op.numIn, op.fcache)
		op.minF = None
		for _, f := range op.fcache {
			if f < op.minF {
				op.minF = f
			}
		}
		op.fdirty = false
	}
	c := &w.ctx
	c.op = op
	c.frontiers = op.fcache
	c.minFrontier = op.minF
	c.batch.Reset()
	c.remote = c.remote[:0]
	c.local = c.local[:0]
	op.logic(c)
	// First make all produced pointstamps and hold changes visible, then
	// release the messages themselves: a receiver can never observe a
	// message whose pointstamp is unaccounted. Across processes the same
	// invariant holds per connection: the progress broadcast is enqueued
	// before this scheduling's data frames, and the transport preserves
	// per-peer FIFO order.
	tr.Apply(&c.batch)
	if w.exec.mesh != nil && len(c.batch.Deltas) > 0 {
		w.broadcastProgress(&c.batch)
	}
	for i := range c.remote {
		w.send(c.remote[i])
	}
	if len(w.coalDirty) > 0 {
		// Ship the records staged for remote processes before this
		// scheduling ends: coalescing batches within a scheduling, never
		// across them.
		w.flushRemotes()
	}
	for i := range c.local {
		w.route(c.local[i])
	}
	// The send buffers are reused at their high-water length: drop the batch
	// references they carried, or a burst's envelopes stay reachable from the
	// slots a steady state never overwrites after the free lists let them go.
	clear(c.remote)
	clear(c.local)
	c.op = nil
}

// send delivers a message to a peer worker: remote peers go through the
// mesh (whose per-peer queues never block, so no cross-process send
// deadlock exists), local peers through their inbox channel, draining our
// own inbox while the peer's inbox is full to avoid send-send deadlocks.
//
//megalint:hotpath
func (w *Worker) send(m outMsg) {
	li := m.peer - w.exec.firstGlobal
	if li < 0 || li >= len(w.exec.workers) {
		w.sendRemote(m)
		return
	}
	target := w.exec.workers[li]
	for {
		select {
		case target.inbox <- m.msg:
			target.poke()
			return
		default:
			if !w.drainInbox() {
				// Peer is full and we have nothing to drain; block for real.
				target.inbox <- m.msg
				target.poke()
				return
			}
		}
	}
}

type outMsg struct {
	peer int
	msg  message
}

func (w *Worker) String() string { return fmt.Sprintf("worker[%d/%d]", w.index, w.Peers()) }
