package core

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"megaphone/internal/dataflow"
)

// Config configures a migrateable operator.
type Config struct {
	// Name prefixes the F and S operator names in the dataflow.
	Name string
	// LogBins is the log2 of the number of bins keys are grouped into
	// (Section 4.2). Fixed at construction; defaults to 8 (256 bins).
	LogBins int
	// Transfer is the codec that serializes checkpointed bins and bins
	// migrating to another process (a move within the process hands the
	// bin over as it is): nil means TransferBinary; a non-nil value is a
	// decorator of it (see Codec).
	Transfer Codec
	// Meter, when set, receives per-bin record counts and service time from
	// the S operator (see LoadMeter). It must be sized for this execution:
	// NewLoadMeter(peers, LogBins). nil disables metering.
	Meter *LoadMeter
	// Checkpoint, when set, makes CheckpointMove commands on the control
	// stream drain every locally-owned bin to Checkpoint.Dir at the
	// command's epoch — a migration to disk, with the same frontier
	// alignment. nil ignores checkpoint commands.
	Checkpoint *CheckpointConfig
	// Restore, when set, installs a loaded checkpoint before the execution
	// starts: the recorded assignment seeds every F's routing history and
	// the bins owned by this process's workers are decoded and installed
	// through the migration install path. Drivers must resume input at
	// Restore.Epoch. See LoadRestore.
	Restore *Restore
}

func (c *Config) defaults() {
	if c.Name == "" {
		c.Name = "megaphone"
	}
	if c.LogBins == 0 {
		c.LogBins = 8
	}
	if c.Transfer == nil {
		c.Transfer = TransferBinary
	}
}

// Notificator lets operator logic schedule a record for redelivery at a
// future timestamp (the paper's extended notificator: it buffers (time, key,
// val) triples in a per-bin priority queue that migrates with the bin).
type Notificator[R, S, O any] struct {
	s   *sOp[R, S, O]
	bin int
	now Time
}

// NotifyAt schedules rec for redelivery at time t, which must be strictly
// greater than the timestamp currently being processed. The Notificator is
// only valid for the duration of the Fold call it was passed to.
func (n *Notificator[R, S, O]) NotifyAt(t Time, rec R) {
	if t <= n.now {
		panic(fmt.Sprintf("megaphone: NotifyAt(%v) not after current time %v", t, n.now))
	}
	b := n.s.bins.data[n.bin]
	b.PushPending(t, rec)
	heap.Push(&n.s.notify, binTime{time: t, bin: n.bin})
}

// Ops bundles the user logic of a migrateable operator.
type Ops[R, S, O any] struct {
	// Hash is the exchange function: it maps a record to the hash whose top
	// bits select the record's bin. Use Mix64 for small integer keys.
	Hash func(R) uint64
	// NewState allocates empty per-bin state.
	NewState func() *S
	// Fold applies one record to its bin's state, optionally emitting
	// outputs and scheduling future records.
	Fold func(t Time, rec R, state *S, n *Notificator[R, S, O], emit func(O))
}

// Handle exposes a built operator's migration-facing state for tests and
// instrumentation.
type Handle[R, S, O any] struct {
	// OnApply, when set before Start, is invoked for every record
	// application with the worker index it ran on (used by the Property 2
	// "Migration" tests).
	OnApply func(t Time, bin, worker int)
	// OnInstall, when set before Start, is invoked whenever a migrated bin
	// installs on a worker (one that crossed processes once decoded) —
	// exactly once per bin per migration, which the transport-failure tests
	// pin.
	OnInstall func(t Time, bin, worker int)
	bins      []*binsHolder[R, S]
	newState  func() *S
	// Migrated counts bins shipped away, per worker.
	migrated []int
}

// Bins returns the number of occupied bins on worker w (instrumentation).
func (h *Handle[R, S, O]) Bins(w int) int { return h.bins[w].occupied() }

// Preload initializes a bin's state on a worker before the execution
// starts, so runs measure migration rather than first-touch allocation (the
// paper pre-loads one instance of each key). Must not be called after
// Start.
func (h *Handle[R, S, O]) Preload(worker, bin int, init func(state *S)) {
	b := h.bins[worker].getOrCreate(bin, h.newState)
	init(b.State)
}

// Migrated returns the number of bins worker w has shipped away.
func (h *Handle[R, S, O]) Migrated(w int) int { return h.migrated[w] }

// routed is a record annotated by F with its bin and destination worker, so
// S applies it without re-hashing.
type routed[R any] struct {
	To  int32
	Bin int32
	Rec R
}

// binTime pairs a pending time with the bin that owns it (lazy index into
// the per-bin pending heaps).
type binTime struct {
	time Time
	bin  int
}

type binTimeHeap []binTime

func (h binTimeHeap) Len() int           { return len(h) }
func (h binTimeHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h binTimeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *binTimeHeap) Push(x any)        { *h = append(*h, x.(binTime)) }
func (h *binTimeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Operator builds a migrateable stateful operator over records R with
// per-bin state S and outputs O, controlled by the given stream of Move
// commands. It returns the output stream.
//
// The control stream must be driven identically on every worker's input (it
// is broadcast); see package plan for strategy drivers.
func Operator[R, S, O any](
	w *dataflow.Worker,
	cfg Config,
	control dataflow.Stream[Move],
	input dataflow.Stream[R],
	ops Ops[R, S, O],
	handle *Handle[R, S, O],
) dataflow.Stream[O] {
	cfg.defaults()
	if handle == nil {
		handle = &Handle[R, S, O]{}
	}
	if handle.bins == nil {
		handle.bins = make([]*binsHolder[R, S], w.Peers())
		handle.migrated = make([]int, w.Peers())
		handle.newState = ops.NewState
	}
	bins := newBinsHolder[R, S](cfg.LogBins)
	handle.bins[w.Index()] = bins

	var probe *dataflow.Probe // set after S is built; nil disables migration

	f := &fOp[R, S, O]{
		cfg:   cfg,
		ops:   ops,
		bins:  bins,
		w:     w,
		index: w.Index(),
		peers: w.Peers(),
		probe: func() *dataflow.Probe { return probe },
		hist:  make([][]assign, 1<<uint(cfg.LogBins)),
		h:     handle,
	}
	if cfg.Restore != nil {
		installRestore(w, cfg, ops, f, bins)
	}

	fb := w.NewOp(cfg.Name+"-F", 2)
	dataflow.Connect(fb, control, dataflow.Broadcast[Move]{})
	dataflow.Connect(fb, input, dataflow.Pipeline[R]{})
	fb.OnPurge(f.purge)
	fouts := fb.Build(f.schedule)
	routedData := dataflow.Typed[routed[R]](fouts[0])
	stateOut := dataflow.Typed[binMsg[R, S]](fouts[1])

	s := &sOp[R, S, O]{
		cfg:   cfg,
		ops:   ops,
		bins:  bins,
		w:     w,
		index: w.Index(),
		h:     handle,
	}
	s.notif.s = s
	s.emit = s.emitOne
	if cfg.Meter != nil {
		if cfg.Meter.Bins() != 1<<uint(cfg.LogBins) {
			panic(fmt.Sprintf("megaphone: meter has %d bins, operator %q has %d",
				cfg.Meter.Bins(), cfg.Name, 1<<uint(cfg.LogBins)))
		}
		if cfg.Meter.Workers() != w.Peers() {
			panic(fmt.Sprintf("megaphone: meter has %d workers, execution has %d",
				cfg.Meter.Workers(), w.Peers()))
		}
		s.meter = cfg.Meter
		s.mCount = make([]uint32, 1<<uint(cfg.LogBins))
		s.mTouched = make([]int32, 0, 1<<uint(cfg.LogBins))
	}
	sb := w.NewOp(cfg.Name+"-S", 1)
	dataflow.Connect(sb, routedData, dataflow.ExchangeTo[routed[R]]{To: func(r routed[R]) int { return int(r.To) }})
	dataflow.Connect(sb, stateOut, dataflow.ExchangeTo[binMsg[R, S]]{To: func(m binMsg[R, S]) int { return m.To }})
	if cfg.Restore != nil {
		// Restored bins can carry pending post-dated records (all at times
		// >= the checkpoint epoch: earlier ones were replayed before the
		// checkpoint's frontier). Re-index them in S's notification heap and
		// pin the output capability at the epoch until S's first scheduling
		// recomputes its holds — without the initial hold, the frontier
		// could pass a restored notification before S ever runs.
		sb.InitialHold(0, cfg.Restore.Epoch)
		for b, bs := range bins.data {
			if bs != nil {
				if ht, ok := bs.headPending(); ok {
					heap.Push(&s.notify, binTime{time: ht, bin: b})
				}
			}
		}
	}
	sb.OnPurge(s.purge)
	sb.OnBound(s.appliedBound)
	souts := sb.Build(s.schedule)
	out := dataflow.Typed[O](souts[0])

	probe = dataflow.NewProbe(w, out)
	// F consults the probed frontier out-of-band (step 4 of its schedule);
	// the dirty-set scheduler must re-run it when that frontier moves while
	// a migration is staged.
	w.WatchFrontier(fouts[0], probe)
	return out
}

// installRestore applies a loaded checkpoint to one worker's operator
// instance at build time: the recorded assignment becomes the F routing
// history (so records at times >= the checkpoint epoch route exactly as
// they did when the checkpoint was taken) and this worker's bins are
// decoded and installed — the same decode-and-install a migration's
// receiving side performs, just fed from disk instead of the wire.
func installRestore[R, S, O any](w *dataflow.Worker, cfg Config, ops Ops[R, S, O], f *fOp[R, S, O], bins *binsHolder[R, S]) {
	r := cfg.Restore
	if r.LogBins != cfg.LogBins {
		panic(fmt.Sprintf("megaphone: operator %q: checkpoint has 2^%d bins, config says 2^%d", cfg.Name, r.LogBins, cfg.LogBins))
	}
	if len(r.Assignment) != 1<<uint(cfg.LogBins) {
		panic(fmt.Sprintf("megaphone: operator %q: restore assignment covers %d bins, want %d", cfg.Name, len(r.Assignment), 1<<uint(cfg.LogBins)))
	}
	for b, owner := range r.Assignment {
		if owner != InitialWorker(b, w.Peers()) {
			f.hist[b] = append(f.hist[b], assign{From: 0, Worker: owner})
		}
		if owner != w.Index() {
			continue
		}
		payload, ok := r.Bins[b]
		if !ok {
			continue // bin was owned but empty at the checkpoint
		}
		bin := &BinState[R, S]{State: ops.NewState()}
		if err := cfg.Transfer.DecodeBin(bin, payload); err != nil {
			panic(fmt.Sprintf("megaphone: operator %q: restoring bin %d: %v", cfg.Name, b, err))
		}
		bins.install(b, bin)
	}
}

// canonMoves sorts moves by (bin, worker) and keeps one move per bin (the
// highest-numbered worker wins a conflict), in place. Any deterministic
// rule works; what matters is that every F instance cluster-wide reduces
// the same move set to the same assignment.
func canonMoves(moves []Move) []Move {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Bin != moves[j].Bin {
			return moves[i].Bin < moves[j].Bin
		}
		return moves[i].Worker < moves[j].Worker
	})
	out := moves[:0]
	for _, m := range moves {
		if n := len(out); n > 0 && out[n-1].Bin == m.Bin {
			out[n-1] = m
			continue
		}
		out = append(out, m)
	}
	return out
}

// assign is one entry of a bin's assignment history: Worker owns the bin for
// times in [From, next entry's From).
type assign struct {
	From   Time
	Worker int
}

// pendingConfig is a configuration batch whose time is still in advance of
// the control frontier.
type pendingConfig struct {
	time  Time
	moves []Move
}

type configHeap []pendingConfig

func (h configHeap) Len() int           { return len(h) }
func (h configHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h configHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *configHeap) Push(x any)        { *h = append(*h, x.(pendingConfig)) }
func (h *configHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// fOp is one worker's instance of the F (routing and migration) operator.
type fOp[R, S, O any] struct {
	cfg   Config
	ops   Ops[R, S, O]
	bins  *binsHolder[R, S]
	w     *dataflow.Worker
	index int
	peers int
	probe func() *dataflow.Probe
	h     *Handle[R, S, O]

	hist [][]assign // per-bin assignment history; nil = initial assignment only

	pendingCfg configHeap // configs not yet final (time in advance of control frontier)
	installed  configHeap // final configs awaiting state movement

	staged deferred[R] // kept data batches whose routing is not yet determined
}

const (
	fCtl      = 0 // F input ports
	fData     = 1
	fOutData  = 0 // F output ports
	fOutState = 1
)

// ownerAt returns the worker owning bin at time t.
func (f *fOp[R, S, O]) ownerAt(bin int, t Time) int {
	h := f.hist[bin]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].From <= t {
			return h[i].Worker
		}
	}
	return InitialWorker(bin, f.peers)
}

func (f *fOp[R, S, O]) schedule(c *dataflow.OpCtx) {
	// 1. Ingest configuration commands; their capability is pinned by a
	// hold on the state output so migrations can be sent at their time.
	dataflow.ForEachBatch(c, fCtl, func(t Time, moves []Move) {
		cp := make([]Move, len(moves))
		copy(cp, moves)
		heap.Push(&f.pendingCfg, pendingConfig{time: t, moves: cp})
	})
	ctl := c.Frontier(fCtl)

	// 2. Install configurations that are final: no command at a time less
	// than the control frontier can still arrive. Same-time batches are
	// merged and then canonicalized — sorted by (bin, worker) and reduced
	// to one move per bin — because the merge order is arrival order,
	// which differs between processes of a cluster (each process's control
	// broadcasts travel on different connections). Canonicalization makes
	// the installed history, and hence bin ownership, a pure function of
	// the move *set*, which the control frontier guarantees is complete
	// and identical on every worker of every process. In a single process
	// duplicate same-time moves for a bin always carry the same target, so
	// this is behaviour-preserving there.
	for len(f.pendingCfg) > 0 && f.pendingCfg[0].time < ctl {
		pc := heap.Pop(&f.pendingCfg).(pendingConfig)
		for len(f.pendingCfg) > 0 && f.pendingCfg[0].time == pc.time {
			more := heap.Pop(&f.pendingCfg).(pendingConfig)
			pc.moves = append(pc.moves, more.moves...)
		}
		pc.moves = canonMoves(pc.moves)
		for _, m := range pc.moves {
			if m.IsCheckpoint() {
				continue // checkpoints change no ownership
			}
			f.hist[m.Bin] = append(f.hist[m.Bin], assign{From: pc.time, Worker: m.Worker})
		}
		heap.Push(&f.installed, pc)
	}

	// 3. Route data. Batches whose time is in advance of the control
	// frontier are kept as they are: their configuration could still change.
	dataflow.TakeEachBatch(c, fData, func(t Time, b dataflow.Batch[R]) {
		if t < ctl {
			f.route(c, t, b.Recs)
			b.Release(f.w)
			return
		}
		f.staged.push(t, b)
	})
	for f.staged.head() < ctl {
		t := f.staged.head()
		b := f.staged.pop()
		f.route(c, t, b.Recs)
		b.Release(f.w)
	}

	// 4. Execute installed migrations once the S output frontier has
	// reached their time: all earlier updates have then been applied.
	for len(f.installed) > 0 {
		p := f.probe()
		if p == nil || p.Frontier() < f.installed[0].time {
			break
		}
		mg := heap.Pop(&f.installed).(pendingConfig)
		f.execute(c, mg)
	}

	// 5. Maintain capability holds: the data output covers staged
	// batches; the state output covers pending and installed migrations.
	if t := f.staged.head(); t != None {
		c.Hold(fOutData, t)
	} else {
		c.DropHold(fOutData)
	}
	stateHold := None
	if len(f.pendingCfg) > 0 {
		stateHold = f.pendingCfg[0].time
	}
	if len(f.installed) > 0 && f.installed[0].time < stateHold {
		stateHold = f.installed[0].time
	}
	if stateHold != None {
		c.Hold(fOutState, stateHold)
	} else {
		c.DropHold(fOutState)
	}
}

// route sends records at a routable time to their configured workers,
// annotating them into an envelope from the worker's free list that is sent
// as it is. Bins that were never migrated — every bin at steady state before
// the first migration — resolve through the initial-assignment table without
// touching the history.
//
//megalint:hotpath
func (f *fOp[R, S, O]) route(c *dataflow.OpCtx, t Time, data []R) {
	out := dataflow.NewBatch[routed[R]](c, len(data))
	logBins := f.cfg.LogBins
	peers := f.peers
	for _, r := range data {
		bin := BinOf(f.ops.Hash(r), logBins)
		to := bin % peers // InitialWorker, inlined
		if len(f.hist[bin]) > 0 {
			to = f.ownerAt(bin, t)
		}
		out.Recs = append(out.Recs, routed[R]{To: int32(to), Bin: int32(bin), Rec: r})
	}
	dataflow.SendOwned(c, fOutData, t, out)
}

// execute performs the state movement of one installed configuration: for
// every moved bin this worker currently owns, uninstall it from the local S
// instance and ship it to its new owner at the migration's timestamp. A
// checkpoint command in the batch (canonically sorted first) runs before any
// moves of the same time, so the snapshot records the pre-move assignment together
// with the bins still at their pre-move owners — a consistent cut either
// way.
func (f *fOp[R, S, O]) execute(c *dataflow.OpCtx, mg pendingConfig) {
	moves := mg.moves
	if len(moves) > 0 && moves[0].IsCheckpoint() {
		if f.cfg.Checkpoint != nil {
			f.checkpoint(mg.time)
		}
		moves = moves[1:]
	}
	// Restore commands first, batched: one checkpoint read serves every bin
	// this worker must rebuild (a crash reassigns many bins at one epoch).
	var restoreBins []int
	var restoreEpoch Time
	for _, m := range moves {
		if m.IsRestore() && m.Worker == f.index && f.ownerBefore(m.Bin, mg.time) != f.index {
			if restoreEpoch != 0 && restoreEpoch != m.RestoreEpoch {
				panic(fmt.Sprintf("megaphone: operator %q: restore commands at epoch %d name different checkpoints (%d and %d)",
					f.cfg.Name, mg.time, restoreEpoch, m.RestoreEpoch))
			}
			restoreEpoch = m.RestoreEpoch
			restoreBins = append(restoreBins, m.Bin)
		}
	}
	if len(restoreBins) > 0 {
		f.restoreFromCheckpoint(c, restoreBins, restoreEpoch, mg.time)
	}
	for _, m := range moves {
		if m.IsRestore() {
			// Ownership already changed in step 2; the dead previous owner
			// ships nothing, and the new owner's state was synthesized above.
			f.compact(m.Bin, mg.time)
			continue
		}
		// Owner just before the migration takes effect.
		old := f.ownerBefore(m.Bin, mg.time)
		if old == m.Worker {
			f.compact(m.Bin, mg.time)
			continue
		}
		if old == f.index {
			if b := f.bins.take(m.Bin); b != nil {
				f.ship(c, mg.time, m.Bin, m.Worker, b)
				f.h.migrated[f.index]++
			}
		}
		f.compact(m.Bin, mg.time)
	}
}

// ship sends bin b to worker `to` at time t as a batch of its own, so that
// where it leaves the process it is one wire record (see binMsg).
func (f *fOp[R, S, O]) ship(c *dataflow.OpCtx, t Time, bin, to int, b *BinState[R, S]) {
	msg := dataflow.NewBatch[binMsg[R, S]](c, 1)
	msg.Recs = append(msg.Recs, binMsg[R, S]{Bin: bin, To: to, State: b, codec: f.cfg.Transfer})
	dataflow.SendOwned(c, fOutState, t, msg)
}

// restoreFromCheckpoint rebuilds the given bins — reassigned to this worker
// by restore commands taking effect at time `at` — from the checkpoint at
// epoch ckpt, and ships them to this worker's own S instance at `at`, like
// any move. Riding the normal migration install path (rather than poking the
// shared bins holder directly) re-indexes S's notification heap and fires
// OnInstall exactly as a migration would. Pending records
// that came due while the owner was dead are clamped up to `at` (see
// clampPending). Failure to read the checkpoint is fatal: the dead member's
// state exists nowhere else.
func (f *fOp[R, S, O]) restoreFromCheckpoint(c *dataflow.OpCtx, bins []int, ckpt, at Time) {
	if f.cfg.Checkpoint == nil {
		panic(fmt.Sprintf("megaphone: operator %q: restore command at epoch %d but no Config.Checkpoint to read from", f.cfg.Name, at))
	}
	r, err := LoadCheckpointBins(f.cfg.Checkpoint.Dir, f.cfg.Name, ckpt, f.peers, bins, f.cfg.Transfer.Name())
	if err != nil {
		panic(fmt.Sprintf("megaphone: operator %q: restoring %d bins from checkpoint at epoch %d: %v", f.cfg.Name, len(bins), ckpt, err))
	}
	for _, b := range bins {
		payload, ok := r.Bins[b]
		if !ok {
			continue // owned but empty at the checkpoint
		}
		bin := &BinState[R, S]{State: f.ops.NewState()}
		if err := f.cfg.Transfer.DecodeBin(bin, payload); err != nil {
			panic(fmt.Sprintf("megaphone: operator %q: decoding restored bin %d: %v", f.cfg.Name, b, err))
		}
		bin.clampPending(at)
		f.ship(c, at, b, f.index, bin)
	}
}

// checkpoint drains every bin this worker owns just before time t into the
// configured checkpoint directory: each bin is serialized with the
// operator's migration codec — the bytes a cross-process migration puts on
// the wire, written to disk instead. It runs at the same frontier alignment
// as a migration (all updates before t applied, none at or after it), so the
// union of all workers' files is a consistent snapshot of the operator at t.
func (f *fOp[R, S, O]) checkpoint(t Time) {
	ck := f.cfg.Checkpoint
	start := time.Now()
	nbins := 1 << uint(f.cfg.LogBins)
	asn := make([]int, nbins)
	for b := range asn {
		asn[b] = f.ownerBefore(b, t)
	}
	// Filesystem failures are non-fatal: the uncommitted manifest already
	// invalidates this epoch for recovery, and killing the run over a full
	// checkpoint volume would defeat the mechanism's purpose. Codec
	// failures, by contrast, are programming errors and panic exactly as
	// they do on the migration path.
	w, err := NewCheckpointWriter(ck.Dir, f.cfg.Name, t, f.index)
	if err != nil {
		ck.reportError(t, f.index, err)
		return
	}
	var payload []byte
	for b := 0; b < nbins; b++ {
		if asn[b] != f.index {
			continue
		}
		bin := f.bins.data[b]
		if bin == nil {
			continue // owned but empty: recovery recreates it lazily
		}
		payload, err = f.cfg.Transfer.EncodeBin(bin, payload[:0])
		if err != nil {
			w.Abort()
			panic(err)
		}
		if err := w.WriteBin(b, payload); err != nil {
			w.Abort()
			ck.reportError(t, f.index, err)
			return
		}
	}
	if err := w.Finish(f.peers, f.cfg.LogBins, f.cfg.Transfer.Name(), asn, ck.liveWorkers(t)); err != nil {
		ck.reportError(t, f.index, err)
		return
	}
	if ck.OnCheckpoint != nil {
		ck.OnCheckpoint(t, f.index, w.Bins(), w.Bytes(), time.Since(start))
	}
}

// purge implements the crash-barrier deferred-work purge for F (see
// dataflow.OpBuilder.OnPurge): every staged data batch waits at a time at or
// above the control frontier, which at a quiesced crash barrier is at or
// above the cut, so all of them are released — the barrier's replay
// re-injects their epochs from the deterministic source. Pending and
// installed configurations are kept: control commands are injected
// identically by every live process, so the survivors' own copies complete
// each batch.
func (f *fOp[R, S, O]) purge(cut Time) []dataflow.Time {
	f.staged.purge(f.w, cut, f.cfg.Name+"-F")
	stateHold := None
	if len(f.pendingCfg) > 0 {
		stateHold = f.pendingCfg[0].time
	}
	if len(f.installed) > 0 && f.installed[0].time < stateHold {
		stateHold = f.installed[0].time
	}
	return []dataflow.Time{None, stateHold}
}

// purge implements the crash-barrier deferred-work purge for S: staged
// data batches (all at times at or above the cut — earlier times completed
// and were applied before the barrier quiesced) are released for replay.
// The notification heap survives: pending post-dated records are bin state,
// not unapplied input, and migrate or restore with their bin.
func (s *sOp[R, S, O]) purge(cut Time) []dataflow.Time {
	s.staged.purge(s.w, cut, s.cfg.Name+"-S")
	hold := None
	if nt, ok := s.notifyHead(); ok {
		hold = nt
	}
	return []dataflow.Time{hold}
}

// appliedBound implements the crash-barrier applied-bound report for S (see
// dataflow.OpBuilder.OnBound): the bound of its latest schedule. Every data
// record below it was folded into this worker's bins; everything at or above
// it is still deferred (and purged by the barrier) or was never delivered.
// The crash replay's per-bin window starts here for the bins this worker
// keeps: a crashed process's stalled output frontier wedges the global cut
// well below what the survivors had already applied.
func (s *sOp[R, S, O]) appliedBound() Time { return s.applied }

// ownerBefore returns the owner of bin for times strictly less than t,
// ignoring history entries at exactly t (the migration being executed).
func (f *fOp[R, S, O]) ownerBefore(bin int, t Time) int {
	h := f.hist[bin]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].From < t {
			return h[i].Worker
		}
	}
	return InitialWorker(bin, f.peers)
}

// compact drops history entries that no record can consult anymore: once a
// migration at time t executes, no record with time earlier than t can
// arrive, so only the assignment effective at t and later entries matter.
func (f *fOp[R, S, O]) compact(bin int, t Time) {
	h := f.hist[bin]
	keep := 0
	for i, a := range h {
		if a.From <= t {
			keep = i
		}
	}
	if keep > 0 {
		f.hist[bin] = append(h[:0], h[keep:]...)
	}
}

// sOp is one worker's instance of the S (state hosting) operator.
type sOp[R, S, O any] struct {
	cfg   Config
	ops   Ops[R, S, O]
	bins  *binsHolder[R, S]
	w     *dataflow.Worker
	index int
	h     *Handle[R, S, O]

	staged  deferred[routed[R]] // kept data batches, deferred until their time completes
	applied Time                // bound of the latest schedule: all data below it is folded in
	notify  binTimeHeap         // (time, bin) index into per-bin pending heaps

	replayBuf []TimedRec[R] // reusable scratch for popPendingAt

	// The emission path of processTime, set up once so that applying a time
	// allocates nothing: emit (the func handed to every Fold) appends to out,
	// an envelope taken from the worker's free list at the time's first
	// emission and sent as it is; notif is the one Notificator.
	c        *dataflow.OpCtx // the scheduling processTime runs in
	out      dataflow.Batch[O]
	emitting bool // out is live
	outLen   int  // what the previous time emitted: the next envelope's size on a free-list miss
	emit     func(O)
	notif    Notificator[R, S, O]

	// Load metering (nil meter disables it). mCount accumulates this
	// processTime call's per-bin application counts; mTouched lists the bins
	// with a non-zero count so flushing visits only them. Both are sized
	// once at construction — the metered apply path allocates nothing.
	meter    *LoadMeter
	mCount   []uint32
	mTouched []int32
}

const (
	sData  = 0 // S input ports
	sState = 1
)

func (s *sOp[R, S, O]) schedule(c *dataflow.OpCtx) {
	// 1. Install migrated state immediately, decoding a bin that crossed
	// from another process first.
	dataflow.ForEachBatch(c, sState, func(t Time, msgs []binMsg[R, S]) {
		for _, m := range msgs {
			b := m.State
			if b == nil {
				b = &BinState[R, S]{State: s.ops.NewState()}
				if err := s.cfg.Transfer.DecodeBin(b, m.payload); err != nil {
					panic(err)
				}
			}
			s.bins.install(m.Bin, b)
			if s.h.OnInstall != nil {
				s.h.OnInstall(t, m.Bin, s.index)
			}
			if ht, ok := b.headPending(); ok {
				heap.Push(&s.notify, binTime{time: ht, bin: m.Bin})
			}
		}
	})

	// 2. Defer data until its time is not in advance of both frontiers: the
	// batches are kept, not copied.
	dataflow.TakeEachBatch(c, sData, s.staged.push)

	bound := c.Frontier(sData)
	if sf := c.Frontier(sState); sf < bound {
		bound = sf
	}
	s.applied = bound

	// 3. Apply complete times in timestamp order: first replayed pending
	// records, then fresh data, per time.
	for {
		t := s.staged.head()
		if nt, ok := s.notifyHead(); ok && nt < t {
			t = nt
		}
		if t >= bound {
			break
		}
		s.processTime(c, t)
	}

	// 4. Hold the output at the earliest deferred work.
	holdAt := s.staged.head()
	if nt, ok := s.notifyHead(); ok && nt < holdAt {
		holdAt = nt
	}
	if holdAt != None {
		c.Hold(0, holdAt)
	} else {
		c.DropHold(0)
	}
}

// notifyHead returns the earliest valid (time, bin) notification, skipping
// entries staled by replay or by bin migration.
func (s *sOp[R, S, O]) notifyHead() (Time, bool) {
	for len(s.notify) > 0 {
		bt := s.notify[0]
		b := s.bins.data[bt.bin]
		if b != nil {
			if ht, ok := b.headPending(); ok && ht == bt.time {
				return bt.time, true
			}
		}
		heap.Pop(&s.notify)
	}
	return 0, false
}

// emitOne is the emit func of every Fold call: it appends to the current
// time's output batch, taking the envelope on the first emission so that a
// time that emits nothing touches no free list.
//
//megalint:hotpath
func (s *sOp[R, S, O]) emitOne(o O) {
	if !s.emitting {
		s.out = dataflow.NewBatch[O](s.c, s.outLen)
		s.emitting = true
	}
	s.out.Recs = append(s.out.Recs, o)
}

// processTime applies all work at time t: replayed pending records of every
// bin notified at t, then the staged data batches at t, folded straight out
// of the envelopes they arrived in. The Notificator and the emit func are
// the operator's own (they are only valid during each Fold call), and the
// emissions accumulate in one pooled envelope that is sent as it is.
//
//megalint:hotpath
func (s *sOp[R, S, O]) processTime(c *dataflow.OpCtx, t Time) {
	s.c = c
	n := &s.notif
	n.now = t

	var meterStart time.Time
	if s.meter != nil {
		meterStart = time.Now()
	}

	for {
		nt, ok := s.notifyHead()
		if !ok || nt != t {
			break
		}
		bt := heap.Pop(&s.notify).(binTime)
		b := s.bins.data[bt.bin]
		recs := b.popPendingAt(t, s.replayBuf[:0])
		s.replayBuf = recs
		n.bin = bt.bin
		if s.meter != nil {
			s.noteApply(bt.bin, len(recs))
		}
		if s.h.OnApply != nil {
			s.h.OnApply(t, bt.bin, s.index)
		}
		for _, tr := range recs {
			s.ops.Fold(t, tr.Rec, b.State, n, s.emit)
		}
		if ht, ok := b.headPending(); ok {
			//megalint:allow hotalloc the notification index is a container/heap: re-indexing a bin with more post-dated records boxes one entry; only operators that schedule records pay it
			heap.Push(&s.notify, binTime{time: ht, bin: bt.bin})
		}
	}

	for s.staged.head() == t {
		batch := s.staged.pop()
		for _, rr := range batch.Recs {
			bin := int(rr.Bin)
			b := s.bins.getOrCreate(bin, s.ops.NewState)
			n.bin = bin
			if s.meter != nil {
				s.noteApply(bin, 1)
			}
			if s.h.OnApply != nil {
				s.h.OnApply(t, bin, s.index)
			}
			s.ops.Fold(t, rr.Rec, b.State, n, s.emit)
		}
		batch.Release(s.w)
	}

	if s.emitting {
		s.outLen = len(s.out.Recs)
		dataflow.SendOwned(c, 0, t, s.out)
		s.out, s.emitting = dataflow.Batch[O]{}, false
	}
	s.c = nil
	if s.meter != nil {
		s.flushMeter(time.Since(meterStart).Nanoseconds())
	}
}

// noteApply accumulates n applications against bin for the current
// processTime call (zero allocation: both scratch buffers are pre-sized).
func (s *sOp[R, S, O]) noteApply(bin, n int) {
	if s.mCount[bin] == 0 {
		s.mTouched = append(s.mTouched, int32(bin))
	}
	s.mCount[bin] += uint32(n)
}

// flushMeter publishes the accumulated counts into the meter, apportioning
// the elapsed service time of the whole processTime call to bins by their
// record counts. Timing whole times instead of individual records keeps the
// clock off the per-record path; at one logical time per epoch the two clock
// reads amortize to nothing.
func (s *sOp[R, S, O]) flushMeter(elapsed int64) {
	if elapsed < 0 {
		elapsed = 0
	}
	var total uint64
	for _, b := range s.mTouched {
		total += uint64(s.mCount[b])
	}
	if total == 0 {
		s.mTouched = s.mTouched[:0]
		return
	}
	for _, b := range s.mTouched {
		n := uint64(s.mCount[b])
		s.mCount[b] = 0
		s.meter.add(s.index, int(b), n, uint64(elapsed)*n/total)
	}
	s.mTouched = s.mTouched[:0]
}
