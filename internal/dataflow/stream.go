package dataflow

import "fmt"

// Stream is a typed stream of timestamped batches of T. Batches are
// immutable once sent: multiple consumers may observe the same underlying
// slice and must not modify it.
type Stream[T any] struct {
	core StreamCore
}

// Typed wraps a type-erased stream; the caller asserts its element type.
func Typed[T any](c StreamCore) Stream[T] { return Stream[T]{core: c} }

// Pact is a parallelization contract: it decides how batches on an edge are
// routed between workers.
type Pact[T any] interface {
	partitioner(w *Worker) Partitioner
}

// Pipeline keeps batches on the worker that produced them.
type Pipeline[T any] struct{}

func (Pipeline[T]) partitioner(w *Worker) Partitioner { return nil }

// Exchange routes each record to the worker given by its hash modulo the
// number of workers. The hash spread is stateless load distribution, so
// membership awareness is safe here: a record whose hash lands on a worker
// that is inactive at the send time is remapped onto an active worker
// (deterministically per target, arbitrary across senders — the receiving
// operator must not depend on which peer a record arrives at, which holds
// for Megaphone's F router by construction).
type Exchange[T any] struct {
	Hash func(T) uint64
}

func (e Exchange[T]) partitioner(w *Worker) Partitioner {
	hash := e.Hash
	peers := w.Peers()
	if peers == 1 {
		// Identity: ship the (already boxed) input batch itself.
		out := make([]any, 1)
		return func(t Time, data any) []any {
			if len(asBatch[T](data)) == 0 {
				return nil
			}
			out[0] = data
			return out
		}
	}
	ex := w.exec
	return partitionBy[T](w, peers, func(t Time, r T) int {
		p := int(hash(r) % uint64(peers))
		if v := ex.viewAt(t); !v.full && !v.workerActive(p) {
			p = v.workers[p%len(v.workers)]
		}
		return p
	})
}

// ExchangeTo routes each record to the worker index returned by To. This is
// the indirection Megaphone introduces: the routing decision is made by the
// sender against its routing table rather than by a static hash.
//
// ExchangeTo is deliberately NOT membership-aware: its destinations are
// assignment-driven (bin ownership), and the membership protocol's
// invariant is that no bin is ever assigned to an inactive worker at a
// committed time. A violation should surface as a wedged frontier in
// equivalence tests, not be papered over by silent rerouting.
//
// The produced partitions never alias the input batch (they are copied into
// a fresh buffer), so a sender may reuse its input buffer across sends on
// ports whose edges all carry ExchangeTo.
type ExchangeTo[T any] struct {
	To func(T) int
}

func (e ExchangeTo[T]) partitioner(w *Worker) Partitioner {
	to := e.To
	return partitionBy[T](w, w.Peers(), func(_ Time, r T) int { return to(r) })
}

// partitionBy builds a partitioner that splits each batch by a per-record
// destination. Each non-empty partition is a borrowed envelope (refs=0;
// Send takes the receivers' references) drawn from the worker's free list,
// so a warmed steady state partitions without allocating; the result
// slice, destination table, and count tables are scratch reused across
// calls — partitioners are per-worker and only invoked from their worker's
// scheduling loop.
func partitionBy[T any](w *Worker, peers int, to func(Time, T) int) Partitioner {
	out := make([]any, peers)
	envs := make([]*batchEnv[T], peers)
	counts := make([]int32, peers)
	var dest []int32
	return func(t Time, data any) []any {
		in := asBatch[T](data)
		if len(in) == 0 {
			return nil
		}
		if cap(dest) < len(in) {
			dest = make([]int32, len(in))
		}
		dest = dest[:len(in)]
		for i := range counts {
			counts[i] = 0
		}
		for i, r := range in {
			p := to(t, r)
			dest[i] = int32(p)
			counts[p]++
		}
		for p := 0; p < peers; p++ {
			if counts[p] == 0 {
				envs[p] = nil
				out[p] = nil
				continue
			}
			e := getEnv[T](w, int(counts[p]))
			envs[p] = e
			out[p] = e
		}
		for i, r := range in {
			e := envs[dest[i]]
			e.s = append(e.s, r)
		}
		return out
	}
}

// Broadcast delivers every batch to every worker active at the batch's
// time. Inactive workers are skipped, not caught up later: a process that
// joins is seeded with the consolidated effect of everything it missed
// (assignment history, migrated state), exactly as a restored process is.
type Broadcast[T any] struct{}

func (Broadcast[T]) partitioner(w *Worker) Partitioner {
	out := make([]any, w.Peers())
	ex := w.exec
	return func(t Time, data any) []any {
		if len(asBatch[T](data)) == 0 {
			return nil
		}
		v := ex.viewAt(t)
		for i := range out {
			if v.workerActive(i) {
				// Share the boxed batch: batches are immutable after send.
				out[i] = data
			} else {
				out[i] = nil
			}
		}
		return out
	}
}

// Connect attaches stream s to the next input of builder b under pact p,
// returning the input port index. In a multi-process execution an edge that
// partitions (any pact but Pipeline) may carry batches across processes, so
// Connect registers its wire codec, derived from T, and panics when T has
// none (see wireCodecFor): the graph is refused at build, not at the first
// batch that leaves the process.
func Connect[T any](b *OpBuilder, s Stream[T], p Pact[T]) int {
	part := p.partitioner(b.w)
	i := b.addInput(s.core, part)
	if b.w.exec.mesh != nil && part != nil {
		c := wireCodecFor[T]()
		if c.enc == nil {
			panic(fmt.Sprintf("dataflow: operator %q input %d: records of type %T have no binary wire codec (AppendBinaryRec/DecodeBinaryRec on the pointer), so they cannot cross processes",
				b.name, i, *new(T)))
		}
		b.codecs[i] = c
	}
	return i
}

// Batch is a batch of records an operator owns: one it built to send
// (NewBatch, append to Recs, SendOwned) or one it kept from its input
// (TakeEachBatch). Owning a batch is holding one reference to its envelope,
// and the owner gives that reference up exactly once, on its worker: to
// SendOwned, or to Release. A batch that arrived as a raw slice (decoded
// off the wire) has no envelope; the same calls apply and the garbage
// collector owns the buffer.
//
// The records of a kept batch are shared with every other consumer of the
// envelope and must not be modified.
type Batch[T any] struct {
	Recs []T
	env  *batchEnv[T]
}

// NewBatch returns an empty batch with room for n records, drawn from the
// worker's free list, for the operator to fill and send.
//
//megalint:hotpath
func NewBatch[T any](c *OpCtx, n int) Batch[T] {
	e := getEnv[T](c.w, n)
	e.refs.Store(1)
	return Batch[T]{Recs: e.s, env: e}
}

// sync points the envelope at what its owner built in Recs (which append
// may have moved). Only a sole owner may: the envelope of a kept batch that
// other consumers still hold already has the records, and they are reading
// it.
//
//megalint:hotpath
func (b Batch[T]) sync() {
	if b.env.refs.Load() == 1 {
		b.env.s = b.Recs
	}
}

// Release gives the batch up: the owner is done with the records. Called on
// the owning worker's goroutine, or while that worker is parked in Pause (a
// purge callback).
//
//megalint:hotpath
func (b Batch[T]) Release(w *Worker) {
	if b.env != nil {
		b.sync()
		b.env.release(w)
	}
}

// SendOwned emits an owned batch on output port o at time t without copying
// it; the batch is the receivers' afterwards. An empty batch is released.
//
//megalint:hotpath
func SendOwned[T any](c *OpCtx, o int, t Time, b Batch[T]) {
	switch {
	case len(b.Recs) == 0:
		b.Release(c.w)
	case b.env == nil:
		//megalint:allow hotalloc forwarding a raw wire-decoded slice boxes its header; built and in-process batches carry envelopes
		c.Send(o, t, b.Recs)
	default:
		b.sync()
		c.Send(o, t, b.env)
	}
}

// ForEachBatch drains input i, invoking f once per batch with its typed
// contents. The slice is lent for the duration of the callback: build what
// outlives it in a NewBatch, or drain with TakeEachBatch to keep or forward
// the batch itself.
//
//megalint:hotpath
func ForEachBatch[T any](c *OpCtx, i int, f func(t Time, data []T)) {
	//megalint:allow hotalloc one adapter closure per drain, amortized over the whole batch run
	c.drain(i, false, func(t Time, data any) { f(t, asBatch[T](data)) })
}

// TakeEachBatch drains input i like ForEachBatch, but each batch is f's to
// keep: f (or whoever it passes the batch to) must Release it or SendOwned
// it, in this scheduling or a later one.
//
//megalint:hotpath
func TakeEachBatch[T any](c *OpCtx, i int, f func(t Time, b Batch[T])) {
	//megalint:allow hotalloc one adapter closure per drain, amortized over the whole batch run
	c.drain(i, true, func(t Time, data any) {
		if e, ok := data.(*batchEnv[T]); ok {
			f(t, Batch[T]{Recs: e.s, env: e})
		} else {
			f(t, Batch[T]{Recs: data.([]T)})
		}
	})
}
