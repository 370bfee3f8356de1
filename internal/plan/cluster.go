package plan

import (
	"sync/atomic"

	"megaphone/internal/binenc"
	"megaphone/internal/core"
)

// This file makes the AutoController cluster-wide. Every process samples its
// own LoadMeter rows on the same cadence and broadcasts the increments as
// core.LoadDelta frames over the mesh control channel; each process folds
// the deltas it receives into a core.ClusterLoadView, so all of them
// converge on the same worker×bin load matrix. Exactly one process acts on
// that matrix: the leader the shared detector elects (liveness.go) runs the
// policy and cost model and issues plans through its own Controller, whose
// control moves broadcast to every worker in the cluster (bin ownership is a
// pure function of the move set, so a single sender suffices). A fresh
// leader may not decide until the frontier passes its takeover epoch, which
// proves every move the previous leader issued has fully applied, so a
// takeover can never interleave a conflicting plan with a dying one.

// ClusterOptions places a process in a multi-process cluster's control plane:
// the channel, the roster and the failure detector. AutoOptions.Cluster takes
// it for the fixed-roster autoscaler and MembershipOptions embeds it.
type ClusterOptions struct {
	// Bus is the control channel (required).
	Bus ControlBus
	// Procs and Proc are the cluster's process count and this process's
	// index; WorkersPerProc is the per-process worker count (uniform), so
	// process p owns meter rows [p*WorkersPerProc, (p+1)*WorkersPerProc).
	Procs, Proc    int
	WorkersPerProc int
	// Liveness configures the failure detector. Its window is one sampling
	// interval for the autoscaler (election reacts within roughly
	// SuspectAfter×SampleEvery epochs) and one tick under membership.
	Liveness Liveness
	// OnLeadership observes leadership transitions of this process
	// (instrumentation; called on the ticking goroutine).
	OnLeadership func(leader bool, epoch core.Time)
	// Logf, when non-nil, receives control-plane lifecycle messages.
	Logf func(format string, args ...any)
}

// Telemetry payload kinds (first byte of every frame on the bus; below
// kindBeat, see liveness.go).
const (
	ctrlKindLoad     byte = 1 // core.LoadDelta
	ctrlKindDecision byte = 2 // leader decision, mirrored by followers
)

// clusterState is the per-process telemetry half of the distributed control
// plane: it broadcasts the local load increments and folds the peers' into
// the cluster-wide view. The ticking goroutine owns sampling; transport
// receive goroutines (serialized by the bus) own the inbound merge. Who is
// alive and who leads is the detector's business, not this struct's.
type clusterState struct {
	det  *detector
	view *core.ClusterLoadView

	meter      *core.LoadMeter
	firstLocal int // this process's meter rows start here, one per outDelta row

	// Outgoing delta state (ticking goroutine only): previous cumulative
	// row values, so each broadcast carries increments.
	seq                 uint64
	prevRecs, prevNanos [][]uint64
	rowRecs, rowNanos   []uint64
	outDelta            core.LoadDelta
	outBuf              []byte

	// Takeover guard (ticking goroutine only): a fresh leader may not decide
	// until the frontier passes takeoverEpoch.
	takeoverEpoch core.Time
	takeoverGuard bool

	// heard[q] latches once any load delta from process q has been folded
	// into the view, so the leader can tell "no telemetry yet" apart from
	// "quiet window" and defer decisions until the view covers the cluster.
	heard []atomic.Bool

	// mirror, when set, receives every decision frame a remote leader
	// broadcast (the AutoController records it; telemetry-only users leave
	// it nil).
	mirror func(d Decision, assign Assignment)

	// Inbound decode state (bus-serialized handler only).
	inDelta core.LoadDelta
	lastSeq []uint64 // highest delta seq folded per origin
}

func newClusterState(meter *core.LoadMeter, det *detector, workersPerProc int) *clusterState {
	if workersPerProc <= 0 || det.procs*workersPerProc != meter.Workers() {
		panic("plan: the cluster's worker layout does not match the meter")
	}
	first := det.proc * workersPerProc
	cs := &clusterState{
		det:        det,
		view:       core.NewClusterLoadView(meter, first, workersPerProc),
		meter:      meter,
		firstLocal: first,
		rowRecs:    make([]uint64, meter.Bins()),
		rowNanos:   make([]uint64, meter.Bins()),
		heard:      make([]atomic.Bool, det.procs),
		lastSeq:    make([]uint64, det.procs),
	}
	cs.prevRecs = make([][]uint64, workersPerProc)
	cs.prevNanos = make([][]uint64, workersPerProc)
	cs.outDelta.Rows = make([]core.LoadDeltaRow, workersPerProc)
	for r := 0; r < workersPerProc; r++ {
		cs.prevRecs[r] = make([]uint64, meter.Bins())
		cs.prevNanos[r] = make([]uint64, meter.Bins())
		cs.outDelta.Rows[r] = core.LoadDeltaRow{
			Recs:  make([]uint64, meter.Bins()),
			Nanos: make([]uint64, meter.Bins()),
		}
	}
	return cs
}

// sample broadcasts this window's local row increments, even when empty, so
// peers' coverage latches set on the first window. Ticking goroutine only.
func (cs *clusterState) sample() {
	bins := cs.meter.Bins()
	cs.seq++
	d := &cs.outDelta
	d.Proc = cs.det.proc
	d.Seq = cs.seq
	d.FirstWorker = cs.firstLocal
	d.Bins = bins
	for r := range d.Rows {
		cs.meter.ReadRow(cs.firstLocal+r, cs.rowRecs, cs.rowNanos)
		for b := 0; b < bins; b++ {
			d.Rows[r].Recs[b] = cs.rowRecs[b] - cs.prevRecs[r][b]
			d.Rows[r].Nanos[b] = cs.rowNanos[b] - cs.prevNanos[r][b]
			cs.prevRecs[r][b] = cs.rowRecs[b]
			cs.prevNanos[r][b] = cs.rowNanos[b]
		}
	}
	cs.outBuf = append(cs.outBuf[:0], ctrlKindLoad)
	cs.outBuf = core.AppendLoadDelta(cs.outBuf, d)
	cs.det.broadcast(cs.outBuf)
}

// covered reports whether the merged view spans the whole cluster: every
// peer has either contributed at least one load delta or is suspected dead.
// Until then a leader's window is mostly its own local rows, and a plan
// rendered from it would chase a phantom imbalance — the decision defers to
// the next sampling boundary instead.
func (cs *clusterState) covered() bool {
	for q := 0; q < cs.det.procs; q++ {
		if q != cs.det.proc && !cs.heard[q].Load() && !cs.det.suspected(q) {
			return false
		}
	}
	return true
}

// mayLead runs the election at a sampling boundary and reports whether this
// process leads and is clear to decide. Taking over arms the guard: no
// decision until the frontier is strictly past the takeover epoch (or empty:
// the dataflow drained, nothing can be in flight), proving every move a
// previous leader issued, necessarily at an earlier epoch, has been applied
// cluster-wide.
func (cs *clusterState) mayLead(now, frontier core.Time) bool {
	lead, tookOver := cs.det.elect(now, nil)
	if tookOver {
		cs.takeoverEpoch, cs.takeoverGuard = now, true
	}
	if cs.takeoverGuard && (frontier == core.None || frontier > cs.takeoverEpoch) {
		cs.takeoverGuard = false
	}
	return lead && !cs.takeoverGuard
}

// appendDecisionFrame encodes a leader decision (issued or declined) for
// followers to mirror. assign is the new in-effect assignment (nil when
// declined: nothing changed).
func appendDecisionFrame(buf []byte, d Decision, assign Assignment) []byte {
	buf = append(buf, ctrlKindDecision)
	buf = binenc.AppendUvarint(buf, uint64(d.Origin))
	buf = binenc.AppendUvarint(buf, uint64(d.Epoch))
	buf = binenc.AppendBool(buf, d.Declined)
	buf = binenc.AppendString(buf, d.Policy)
	buf = binenc.AppendString(buf, d.Reason)
	buf = binenc.AppendUvarint(buf, uint64(d.Moves))
	buf = binenc.AppendUvarint(buf, uint64(d.Steps))
	buf = binenc.AppendUvarint(buf, d.WindowRecs)
	buf = binenc.AppendUvarint(buf, d.Volume)
	buf = binenc.AppendUvarint(buf, d.Gain)
	buf = binenc.AppendUvarint(buf, uint64(len(assign)))
	for _, w := range assign {
		buf = binenc.AppendUvarint(buf, uint64(w))
	}
	return buf
}

// parseDecisionFrame decodes a decision frame (sans the kind byte).
func parseDecisionFrame(data []byte) (Decision, Assignment, error) {
	var d Decision
	var origin, epoch, moves, steps, bins uint64
	var err error
	if origin, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if epoch, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.Declined, data, err = binenc.Bool(data); err != nil {
		return d, nil, err
	}
	if d.Policy, data, err = binenc.String(data); err != nil {
		return d, nil, err
	}
	if d.Reason, data, err = binenc.String(data); err != nil {
		return d, nil, err
	}
	if moves, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if steps, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.WindowRecs, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.Volume, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if d.Gain, data, err = binenc.Uvarint(data); err != nil {
		return d, nil, err
	}
	if bins, data, err = binenc.Count(data, 1); err != nil {
		return d, nil, err
	}
	var assign Assignment
	if bins > 0 {
		assign = make(Assignment, bins)
		for b := range assign {
			var w uint64
			if w, data, err = binenc.Uvarint(data); err != nil {
				return d, nil, err
			}
			assign[b] = int(w)
		}
	}
	d.Origin = int(origin)
	d.Epoch = core.Time(epoch)
	d.Moves = int(moves)
	d.Steps = int(steps)
	return d, assign, nil
}

// onControl handles one inbound telemetry-plane frame. Runs on the bus's
// serialized handler context, never on the ticking goroutine.
func (cs *clusterState) onControl(from int, payload []byte) {
	switch payload[0] {
	case ctrlKindLoad:
		d := &cs.inDelta
		if err := core.DecodeLoadDelta(payload[1:], d); err != nil {
			cs.det.logf("megaphone: process %d: dropping control frame from %d: %v", cs.det.proc, from, err)
			return
		}
		if d.Proc < 0 || d.Proc >= cs.det.procs {
			cs.det.logf("megaphone: process %d: load delta claims origin %d of %d", cs.det.proc, d.Proc, cs.det.procs)
			return
		}
		if d.Seq <= cs.lastSeq[d.Proc] {
			return // duplicate or stale (transport is exactly-once; belt and braces)
		}
		if err := cs.view.Apply(d); err != nil {
			cs.det.logf("megaphone: process %d: dropping load delta from %d: %v", cs.det.proc, from, err)
			return
		}
		cs.lastSeq[d.Proc] = d.Seq
		cs.heard[d.Proc].Store(true)
	case ctrlKindDecision:
		d, assign, err := parseDecisionFrame(payload[1:])
		if err != nil {
			cs.det.logf("megaphone: process %d: dropping decision frame from %d: %v", cs.det.proc, from, err)
			return
		}
		if cs.mirror != nil && d.Origin != cs.det.proc {
			cs.mirror(d, assign)
		}
	default:
		cs.det.logf("megaphone: process %d: unknown control payload kind %d from %d", cs.det.proc, payload[0], from)
	}
}
