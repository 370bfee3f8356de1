package dataflow

import (
	"fmt"

	"megaphone/internal/progress"
)

// batchIn is a queued inbound batch awaiting consumption by an operator.
type batchIn struct {
	time Time
	data any
}

// outEdgeInst is one outgoing edge of an operator output port on a specific
// worker: the canonical edge id plus this worker's partitioner.
type outEdgeInst struct {
	edge progress.Edge
	dst  progress.Port
	part Partitioner
}

// opInstance is one worker's instance of an operator.
type opInstance struct {
	node     progress.Node
	name     string
	numIn    int
	numOut   int
	queues   [][]batchIn
	holds    []Time          // current capability hold per output port; None = none
	inEdges  []progress.Edge // canonical edge id feeding each input port
	outEdges [][]outEdgeInst
	logic    func(*OpCtx)
	purge    func(cut Time) []Time // see OpBuilder.OnPurge; nil = nothing to purge
	bound    func() Time           // see OpBuilder.OnBound; nil = no state to bound

	// Scheduling state, owned by the worker goroutine (see Worker.sweep).
	active    bool     // queued in the worker's activation set
	holdCount int      // output ports with a live hold
	portIDs   []int    // dense tracker ids of the input ports
	seenEpoch []uint64 // port epochs when fcache was computed
	watchIDs  []int    // out-of-band watched ports (WatchFrontier)
	watchSeen []uint64
	fcache    []Time // cached input frontiers, exact while !fdirty
	minF      Time   // min of fcache (None when no inputs)
	fdirty    bool
}

func (op *opInstance) finalize(w *Worker) {
	if op.logic == nil {
		panic(fmt.Sprintf("dataflow: operator %q built without logic", op.name))
	}
}

// Partitioner splits a batch (a []T boxed as any) into per-worker batches.
// The result is indexed by worker; nil entries mean "nothing for that
// worker". A nil Partitioner is the pipeline contract: the batch stays on
// the sending worker. The timestamp is the batch's send time: pacts that
// are membership-aware (Exchange, Broadcast) consult the view governing
// that time, so reconfigurations commit at epoch boundaries.
//
// The returned slice is only read until the next call on the same worker, so
// implementations reuse it across calls; empty partitions must be nil (the
// runtime does not re-check lengths). A partitioner may return the input
// batch itself as a partition (Broadcast does; Exchange does for a single
// peer), in which case the input is owned by the receivers afterwards.
type Partitioner func(t Time, data any) []any

// StreamCore identifies a stream of timestamped batches: the output port of
// the operator that produces it. It is worker-specific only in that it was
// obtained from some worker's builder; the port coordinates are canonical.
type StreamCore struct {
	w   *Worker
	src progress.Port
}

// OpBuilder declares one operator during graph construction.
type OpBuilder struct {
	w       *Worker
	name    string
	numOut  int
	inputs  []StreamCore
	parts   []Partitioner
	codecs  []wireCodec // per input edge; zero value = cannot cross processes
	node    progress.Node
	purgeFn func(cut Time) []Time
	boundFn func() Time
	holdsAt []struct {
		port int
		time Time
	}
}

// NewOp starts the declaration of an operator with the given number of
// output ports.
func (w *Worker) NewOp(name string, outputs int) *OpBuilder {
	return &OpBuilder{w: w, name: name, numOut: outputs}
}

// addInput connects a stream to the next input port of the operator under
// construction using the given partitioner (nil = pipeline), returning the
// input port index. Connect is its one caller: it also registers the wire
// codec a partitioned edge needs in a mesh.
func (b *OpBuilder) addInput(s StreamCore, part Partitioner) int {
	if s.w != b.w {
		panic("dataflow: stream from a different worker")
	}
	b.inputs = append(b.inputs, s)
	b.parts = append(b.parts, part)
	b.codecs = append(b.codecs, wireCodec{})
	return len(b.inputs) - 1
}

// OnPurge registers the operator's deferred-work purge: called (with workers
// parked in Pause, so operator state is safe to touch) when a crash barrier
// discards every record at times >= cut — unapplied input that will be
// re-injected from its deterministic source after the barrier. The callback
// must drop such records from the operator's own buffers and return the
// operator's new capability hold per output port (None = no hold). Hold
// bookkeeping is rewritten directly, without progress deltas: a purge is
// always followed by ResetProgress, which rebuilds every tracker from the
// post-purge holds.
func (b *OpBuilder) OnPurge(f func(cut Time) []Time) {
	b.purgeFn = f
}

// OnBound registers the operator's applied-bound report: a callback returning
// the earliest timestamp the operator has not yet folded into its state —
// every record strictly below the bound is applied, none at or above it is.
// A crash barrier collects the bounds (Execution.AppliedBounds) to compute
// per-bin replay windows: applications above the purge cut survive a crash on
// the workers that made them, so replaying from the cut alone would apply
// those records twice. Called only while workers are parked in Pause.
func (b *OpBuilder) OnBound(f func() Time) {
	b.boundFn = f
}

// InitialHold grants the operator a capability hold at time t on the given
// output port from the start of the computation. Source operators (inputs)
// need this to be allowed to send unprompted.
func (b *OpBuilder) InitialHold(port int, t Time) {
	b.holdsAt = append(b.holdsAt, struct {
		port int
		time Time
	}{port, t})
}

// Build registers the operator with the given logic and returns its output
// streams. The logic runs whenever the worker schedules the operator; it
// must consume queued input via the context and may send, hold, and drop
// capabilities.
func (b *OpBuilder) Build(logic func(*OpCtx)) []StreamCore {
	w := b.w
	e := w.exec

	// Canonical registration (this process's first worker) or verification
	// (others). In a mesh every process registers the same canonical
	// structure independently — the build is deterministic — so edge and
	// node ids agree cluster-wide.
	if w.local == 0 {
		node := e.gb.AddNode(b.name, len(b.inputs), b.numOut)
		e.canonNodes = append(e.canonNodes, struct{ in, out int }{len(b.inputs), b.numOut})
		b.node = node
		for i, in := range b.inputs {
			edge := e.gb.AddEdge(in.src, progress.Port{Node: node, Port: i})
			e.canonEdges = append(e.canonEdges, canonEdge{dst: progress.Port{Node: node, Port: i}})
			e.edgeCodecs = append(e.edgeCodecs, b.codecs[i])
			_ = edge
		}
	} else {
		if w.nodeSeq >= len(e.canonNodes) {
			panic(fmt.Sprintf("dataflow: worker %d built extra operator %q", w.index, b.name))
		}
		cn := e.canonNodes[w.nodeSeq]
		if cn.in != len(b.inputs) || cn.out != b.numOut {
			panic(fmt.Sprintf("dataflow: worker %d operator %q differs from canonical graph", w.index, b.name))
		}
		b.node = progress.Node(w.nodeSeq)
	}
	w.nodeSeq++

	op := &opInstance{
		node:   b.node,
		name:   b.name,
		numIn:  len(b.inputs),
		numOut: b.numOut,
		queues: make([][]batchIn, len(b.inputs)),
		holds:  make([]Time, b.numOut),
		logic:  logic,
		purge:  b.purgeFn,
		bound:  b.boundFn,
	}
	for i := range op.holds {
		op.holds[i] = None
	}
	w.ops = append(w.ops, op)

	// Wire this worker's instances of the inbound edges into the producing
	// operators' outgoing edge lists. Edge ids are assigned in declaration
	// order, matching the canonical registration above.
	for i, in := range b.inputs {
		edgeID := progress.Edge(w.edgeSeq)
		w.edgeSeq++
		op.inEdges = append(op.inEdges, edgeID)
		src := w.ops[in.src.Node]
		src.outEdges = ensureLen(src.outEdges, in.src.Port+1)
		src.outEdges[in.src.Port] = append(src.outEdges[in.src.Port], outEdgeInst{
			edge: edgeID,
			dst:  progress.Port{Node: b.node, Port: i},
			part: b.parts[i],
		})
	}

	// Record initial holds. Every worker's instance holds its own
	// capability, so each contributes one occurrence at the shared
	// (node, port) location. Locations cannot be computed until the graph
	// freezes, so stash the port coordinates; Execution.Build resolves them.
	for _, h := range b.holdsAt {
		if op.holds[h.port] == None {
			op.holdCount++
		}
		op.holds[h.port] = h.time
		e.pendingHolds = append(e.pendingHolds, pendingHold{
			port: progress.Port{Node: b.node, Port: h.port},
			time: h.time,
		})
	}

	outs := make([]StreamCore, b.numOut)
	for i := range outs {
		outs[i] = StreamCore{w: w, src: progress.Port{Node: b.node, Port: i}}
	}
	return outs
}

type pendingHold struct {
	port progress.Port
	time Time
}

func ensureLen[T any](s [][]T, n int) [][]T {
	for len(s) < n {
		s = append(s, nil)
	}
	return s
}

// OpCtx is the scheduling context handed to operator logic: queued input,
// input frontiers, and output capabilities. All progress consequences of one
// scheduling (consumed input, produced output, hold changes) are applied
// atomically after the logic returns.
type OpCtx struct {
	w           *Worker
	op          *opInstance
	frontiers   []Time
	minFrontier Time
	batch       progress.Batch
	remote      []outMsg
	local       []message
}

// Frontier returns the frontier of input port i: the least timestamp that
// may still arrive there (None when the input is complete).
func (c *OpCtx) Frontier(i int) Time { return c.frontiers[i] }

// ForEach drains input port i, invoking f once per queued batch. The data
// argument is the batch the producer sent, lent for the duration of the
// callback: the runtime may recycle the buffer afterwards. A callee that
// wants the records beyond the callback either copies them out (into a
// NewBatch) or drains with TakeEachBatch, which hands it the batch to keep.
//
//megalint:hotpath
func (c *OpCtx) ForEach(i int, f func(t Time, data any)) { c.drain(i, false, f) }

// drain is the one input drain: it consumes every batch queued on port i
// and hands each to f. With keep, the consumer's reference to the batch
// passes to f (see TakeEachBatch); otherwise it is dropped after f returns.
//
//megalint:hotpath
func (c *OpCtx) drain(i int, keep bool, f func(t Time, data any)) {
	q := c.op.queues[i]
	if len(q) == 0 {
		return
	}
	// Reuse the queue's backing array: nothing appends to it while the
	// operator's logic runs (inbound routing happens between schedulings,
	// and this operator's own sends are released after its logic returns).
	c.op.queues[i] = q[:0]
	loc := c.w.exec.tracker.EdgeLocation(c.op.inEdges[i])
	for _, b := range q {
		c.batch.Add(loc, b.time, -1)
		f(b.time, b.data)
		if !keep {
			releaseAny(c.w, b.data)
		}
	}
	clear(q) // drop batch references before the backing array is reused
}

// Send emits a batch (a []T or *batchEnv[T] boxed as any) at time t on
// output port o. The batch is routed along every edge attached to the port
// according to each edge's partitioner; empty partitions are filtered by
// the partitioners themselves (typed code can check emptiness, the runtime
// cannot). Send panics if t is not covered by a held capability or by the
// operator's input frontier.
//
// Send consumes one reference to data: each enqueue (local or remote) takes
// its own reference, and the creator's is dropped on return, so an owned
// envelope with no consumers recycles immediately.
//
//megalint:hotpath
func (c *OpCtx) Send(o int, t Time, data any) {
	c.assertCanSendAt(o, t)
	if o >= len(c.op.outEdges) {
		releaseAny(c.w, data) // no consumers
		return
	}
	for _, oe := range c.op.outEdges[o] {
		if oe.part == nil {
			// Pipeline: deliver locally.
			c.batch.Add(c.w.exec.tracker.EdgeLocation(oe.edge), t, 1)
			increfAny(data)
			c.local = append(c.local, message{edge: oe.edge, time: t, data: data})
			continue
		}
		parts := oe.part(t, data)
		for peer, pd := range parts {
			if pd == nil {
				continue
			}
			m := message{edge: oe.edge, time: t, data: pd}
			if peer == c.w.index {
				c.batch.Add(c.w.exec.tracker.EdgeLocation(oe.edge), t, 1)
				increfAny(pd)
				c.local = append(c.local, m)
			} else if mesh := c.w.exec.mesh; mesh == nil || !mesh.Retired(peer/c.w.exec.cfg.Workers) {
				c.batch.Add(c.w.exec.tracker.EdgeLocation(oe.edge), t, 1)
				increfAny(pd)
				c.remote = append(c.remote, outMsg{peer: peer, msg: m})
			} else if pd != data {
				// The destination slot is retired and the partition was built
				// for it alone: recycle it. (When the partitioner forwarded the
				// input itself, the release below covers it.) The message is
				// dropped without a pointstamp, which could never cancel
				// (nothing will consume it) and would wedge the frontier at t.
				// A migration that straddled a death ships its dead-bound bins
				// into this void; the bins are in the crash's lost set and
				// their restore rebuilds them from the checkpoint.
				releaseAny(c.w, pd)
			}
		}
	}
	releaseAny(c.w, data)
}

//megalint:hotpath
func (c *OpCtx) assertCanSendAt(o int, t Time) {
	if h := c.op.holds[o]; h != None && t >= h {
		return
	}
	if t >= c.minFrontier {
		// Covered by a timestamp that may still arrive on some input; the
		// batch being reacted to is accounted at the input edge until this
		// scheduling's deltas apply atomically.
		return
	}
	panic(fmt.Sprintf("dataflow: %s sent at %v without capability (hold=%v, frontier=%v)",
		c.op.name, t, c.op.holds[o], c.minFrontier))
}

// Hold sets the capability hold of output port o to time t, allowing the
// operator to send at times >= t in future schedulings. Holding at a time
// earlier than the current hold or before the input frontier is rejected
// unless covered by the previous hold.
//
//megalint:hotpath
func (c *OpCtx) Hold(o int, t Time) {
	prev := c.op.holds[o]
	if t == prev {
		return
	}
	// A hold move is valid when covered by the previous hold (downgrade) or
	// by the input frontier (a fresh acquisition justified by input that may
	// still arrive, e.g. a batch consumed in this very scheduling).
	if !(prev != None && t >= prev) && !(t >= c.minFrontier) && c.op.numIn > 0 {
		panic(fmt.Sprintf("dataflow: %s held at %v uncovered (prev=%v, frontier=%v)",
			c.op.name, t, prev, c.minFrontier))
	}
	loc := c.w.exec.tracker.CapLocation(progress.Port{Node: c.op.node, Port: o})
	if prev != None {
		c.batch.Add(loc, prev, -1)
	} else if t != None {
		c.op.holdCount++
	}
	c.batch.Add(loc, t, 1)
	c.op.holds[o] = t
}

// DropHold releases the capability hold of output port o.
//
//megalint:hotpath
func (c *OpCtx) DropHold(o int) {
	prev := c.op.holds[o]
	if prev == None {
		return
	}
	loc := c.w.exec.tracker.CapLocation(progress.Port{Node: c.op.node, Port: o})
	c.batch.Add(loc, prev, -1)
	c.op.holds[o] = None
	c.op.holdCount--
}

// HeldAt returns the current hold of output port o (None if none).
func (c *OpCtx) HeldAt(o int) Time { return c.op.holds[o] }
