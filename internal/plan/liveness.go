package plan

import (
	"sync/atomic"
	"time"

	"megaphone/internal/core"
)

// This file is the one failure detector and leader election both control
// planes ride (DESIGN.md, "Liveness and leadership"). A process holds exactly
// one detector, so it holds one opinion about each peer, and the detector's
// dispatcher is the only handler registered on the bus.

// ControlBus is the cluster control channel: broadcast to every peer,
// receive from all of them serialized, frames that arrive before the
// handler registers buffered and replayed. *dataflow.Mesh implements it;
// tests substitute in-memory buses.
type ControlBus interface {
	BroadcastControl(payload []byte)
	SetControlHandler(h func(from int, payload []byte))
}

// Liveness is the failure-detector setting the control planes share.
type Liveness struct {
	// TickEvery is the wall-clock interval between the driver's Tick calls
	// (its epoch interval). A liveness window is one tick in membership mode
	// and one sampling interval in fixed-roster mode, and never advances
	// faster than that much wall time: a drive loop catching up after a stall
	// bursts through epochs in microseconds and a starved goroutine falls
	// epochs behind, but neither reads as a dead peer. Zero advances a window
	// on every tick (tests stepping virtual time).
	TickEvery time.Duration
	// SuspectAfter is the number of windows of silence after which a peer
	// is suspected (default 4).
	SuspectAfter int

	now func() int64 // wall clock in nanoseconds; tests inject a stepped one
}

func (l *Liveness) defaults() {
	if l.SuspectAfter <= 0 {
		l.SuspectAfter = 4
	}
	if l.now == nil {
		l.now = func() int64 { return time.Now().UnixNano() }
	}
}

// kindBeat is the detector's own frame, sent for a window in which the
// process broadcast nothing else. Telemetry kinds sit below it and
// membership kinds above, which is all the dispatcher routes on.
const kindBeat byte = 10

var beatFrame = []byte{kindBeat}

type detector struct {
	bus          ControlBus
	procs, proc  int
	window       int64 // nanoseconds; 0 = one window per tick
	suspectAfter int64
	now          func() int64
	logf         func(format string, args ...any)
	onLeadership func(leader bool, epoch core.Time)

	// The planes' frame handlers, set before start (nil = not attached).
	telemetry, membership func(from int, payload []byte)

	// windows counts elapsed liveness windows, lastHeard[q] is its value when
	// q last spoke, sent latches a broadcast in the current window. Shared
	// between the ticking goroutine and the bus handler.
	windows   atomic.Int64
	lastHeard []atomic.Int64
	sent      atomic.Bool

	// Ticking goroutine only.
	windowStart     int64
	leader, everLed bool
	lastLeader      int
}

// newDetector builds a detector whose window is windowTicks driver ticks.
// The caller attaches its planes, then calls start.
func newDetector(c ClusterOptions, windowTicks int) *detector {
	if c.Bus == nil || c.Procs < 2 || c.Proc < 0 || c.Proc >= c.Procs {
		panic("plan: ClusterOptions needs a Bus and a process index inside a roster of two or more")
	}
	c.Liveness.defaults()
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return &detector{
		bus: c.Bus, procs: c.Procs, proc: c.Proc,
		window:       int64(c.Liveness.TickEvery) * int64(windowTicks),
		suspectAfter: int64(c.Liveness.SuspectAfter),
		now:          c.Liveness.now,
		logf:         c.Logf,
		onLeadership: c.onLeadership,
		lastHeard:    make([]atomic.Int64, c.Procs),
		lastLeader:   -1,
	}
}

// start registers the dispatcher, which also drains every frame the bus
// buffered before now, so no peer's telemetry or decision is ever lost.
func (d *detector) start() { d.bus.SetControlHandler(d.dispatch) }

// broadcast sends one control frame; any frame proves this process alive,
// so its window needs no explicit beat.
func (d *detector) broadcast(payload []byte) {
	d.sent.Store(true)
	d.bus.BroadcastControl(payload)
}

// tick advances the window counter once a window of wall time has passed
// since the last advance, and beats if the closing window was silent. The
// window start moves by exactly one window while ticks keep pace (jitter
// between ticks must not stretch windows) and snaps to now after a stall
// (the catch-up burst is one window, not many).
func (d *detector) tick() {
	if d.window > 0 {
		nano := d.now()
		switch elapsed := nano - d.windowStart; {
		case elapsed < d.window:
			return
		case elapsed < 2*d.window:
			d.windowStart += d.window
		default:
			d.windowStart = nano
		}
	}
	d.windows.Add(1)
	if !d.sent.Swap(false) {
		d.bus.BroadcastControl(beatFrame)
	}
}

// heardFrom restarts q's silence clock.
func (d *detector) heardFrom(q int) { d.lastHeard[q].Store(d.windows.Load()) }

// silentFor returns how many windows q has been silent (0 for this process).
func (d *detector) silentFor(q int) int64 {
	if q == d.proc {
		return 0
	}
	return d.windows.Load() - d.lastHeard[q].Load()
}

// suspected is the one suspicion rule: silence beyond SuspectAfter windows.
func (d *detector) suspected(q int) bool { return d.silentFor(q) > d.suspectAfter }

// elect re-evaluates leadership: the lowest-index eligible (nil = every)
// process not suspected leads. tookOver marks the edge on which this process
// acquires leadership from a predecessor (any acquisition but process 0's at
// startup), whose in-flight decisions the caller must guard against before
// deciding anything itself.
func (d *detector) elect(now core.Time, eligible func(q int) bool) (lead, tookOver bool) {
	idx := -1
	for q := 0; q < d.procs && idx < 0; q++ {
		if (eligible == nil || eligible(q)) && !d.suspected(q) {
			idx = q
		}
	}
	if idx >= 0 {
		if d.lastLeader >= 0 && idx != d.lastLeader {
			d.logf("megaphone: process %d: cluster controller is now process %d (was %d) at epoch %d",
				d.proc, idx, d.lastLeader, now)
		}
		d.lastLeader = idx
	}
	lead = idx == d.proc
	if lead == d.leader {
		return lead, false
	}
	if lead {
		tookOver = d.proc != 0 || d.everLed
		d.everLed = true
	}
	if tookOver {
		d.logf("megaphone: process %d assumed cluster-controller leadership at epoch %d", d.proc, now)
	} else if !lead {
		d.logf("megaphone: process %d ceded cluster-controller leadership at epoch %d", d.proc, now)
	}
	if d.onLeadership != nil {
		d.onLeadership(lead, now)
	}
	d.leader = lead
	return lead, tookOver
}

// dispatch is the bus handler: it marks the sender heard and routes the
// frame on its kind byte to the plane that owns it. Runs on the bus's
// serialized handler context, never on the ticking goroutine.
func (d *detector) dispatch(from int, payload []byte) {
	if from < 0 || from >= d.procs || len(payload) == 0 {
		d.logf("megaphone: process %d: dropping malformed control frame (%d bytes) from %d", d.proc, len(payload), from)
		return
	}
	d.heardFrom(from)
	switch kind := payload[0]; {
	case kind == kindBeat:
	case kind < kindBeat && d.telemetry != nil:
		d.telemetry(from, payload)
	case kind > kindBeat && d.membership != nil:
		d.membership(from, payload)
	default:
		d.logf("megaphone: process %d: no control plane takes payload kind %d from %d", d.proc, kind, from)
	}
}
