package dataflow

import (
	"fmt"
	"sync"

	"megaphone/internal/timestamp"
)

// InputHandle feeds timestamped records into a dataflow from outside the
// worker threads. Each worker has its own handle; a driver goroutine stages
// records and advances the handle's epoch, and the worker's input operator
// flushes staged records and downgrades its capability to the epoch.
//
// Handles are safe for use by one driver goroutine concurrently with the
// worker threads.
type InputHandle[T any] struct {
	mu     sync.Mutex
	staged []stagedBatch[T]
	spare  []stagedBatch[T] // recycled staging buffer (see schedule)
	epoch  Time
	closed bool
	dirty  bool // unflushed staging, epoch change, or close
	w      *Worker
}

type stagedBatch[T any] struct {
	time Time
	data []T
}

// NewInput declares an input operator on worker w and returns the handle
// that drives it together with its output stream. The input starts at epoch
// 0.
func NewInput[T any](w *Worker, name string) (*InputHandle[T], Stream[T]) {
	h := &InputHandle[T]{w: w}
	b := w.NewOp(name, 1)
	b.InitialHold(0, 0)
	outs := b.Build(func(c *OpCtx) {
		h.schedule(c)
	})
	w.pollers = append(w.pollers, poller{op: w.ops[len(w.ops)-1], pending: h.pending})
	return h, Typed[T](outs[0])
}

// SendAt stages a batch of records at time t. t must not be earlier than the
// handle's current epoch. The records are copied, so callers may pass a
// retained slice variadically.
func (h *InputHandle[T]) SendAt(t Time, data ...T) {
	if len(data) == 0 {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		panic("dataflow: SendAt on closed input")
	}
	if t < h.epoch {
		h.mu.Unlock()
		panic(fmt.Sprintf("dataflow: SendAt(%v) behind epoch %v", t, h.epoch))
	}
	h.staged = append(h.staged, stagedBatch[T]{time: t, data: append([]T(nil), data...)})
	h.dirty = true
	h.mu.Unlock()
	h.w.poke()
}

// SendBatchAt stages an already-built batch at time t without copying.
// Ownership of data passes to the runtime, which drops the buffer for the
// garbage collector once the batch is consumed: the caller must not reuse
// or read the slice after the call.
func (h *InputHandle[T]) SendBatchAt(t Time, data []T) {
	if len(data) == 0 {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		panic("dataflow: SendAt on closed input")
	}
	if t < h.epoch {
		h.mu.Unlock()
		panic(fmt.Sprintf("dataflow: SendBatchAt(%v) behind epoch %v", t, h.epoch))
	}
	h.staged = append(h.staged, stagedBatch[T]{time: t, data: data})
	h.dirty = true
	h.mu.Unlock()
	h.w.poke()
}

// AdvanceTo raises the input's epoch to t, promising that no future record
// will carry a time earlier than t. Downstream frontiers advance once the
// worker flushes.
func (h *InputHandle[T]) AdvanceTo(t Time) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if t < h.epoch {
		h.mu.Unlock()
		panic(fmt.Sprintf("dataflow: AdvanceTo(%v) behind epoch %v", t, h.epoch))
	}
	h.epoch = t
	h.dirty = true
	h.mu.Unlock()
	h.w.poke()
}

// Close marks the input complete. Staged records are still delivered; once
// flushed, the input's capability is dropped and downstream frontiers can
// empty.
func (h *InputHandle[T]) Close() {
	h.mu.Lock()
	h.closed = true
	h.dirty = true
	h.mu.Unlock()
	h.w.poke()
}

// Settled reports whether the worker has flushed every staged batch and
// epoch change of this handle into the dataflow. A membership barrier uses
// it on a joiner: the joiner's capability holds must reflect its advanced
// inputs before its hold inventory is meaningful, and unlike a member it
// has no converged output frontier to certify that.
func (h *InputHandle[T]) Settled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.dirty
}

// pending reports whether the worker has unflushed input work.
func (h *InputHandle[T]) pending() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dirty
}

// schedule runs on the worker thread: flush staged batches, then move the
// capability to the current epoch (or drop it when closed). The staging
// buffer is swapped with a spare and recycled so steady-state flushing does
// not allocate.
func (h *InputHandle[T]) schedule(c *OpCtx) {
	h.mu.Lock()
	staged := h.staged
	h.staged = h.spare[:0]
	h.spare = nil
	epoch := h.epoch
	closed := h.closed
	h.dirty = false
	h.mu.Unlock()

	for _, b := range staged {
		if len(b.data) > 0 {
			// The staged buffer is owned by the runtime (see SendBatchAt):
			// adopt it into an envelope its consumers share.
			c.Send(0, b.time, adoptEnv(c.w, b.data))
		}
	}
	clear(staged) // drop record references before recycling
	h.mu.Lock()
	h.spare = staged[:0]
	h.mu.Unlock()

	if closed {
		c.DropHold(0)
		return
	}
	if cur := c.HeldAt(0); cur == timestamp.MaxScalar || epoch > cur {
		c.Hold(0, epoch)
	}
}
