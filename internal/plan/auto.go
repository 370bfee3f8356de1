package plan

import (
	"sync"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// AutoOptions configures an AutoController.
type AutoOptions struct {
	// Meter is the load source (required). Its bin count fixes the
	// assignment size.
	Meter *core.LoadMeter
	// Policy turns sampled load windows into target assignments (required).
	Policy Policy
	// Strategy and Batch render each decision into a plan (Batch as in
	// Build).
	Strategy Strategy
	Batch    int
	// SampleEvery is the number of ticks between load samples and policy
	// evaluations; with the harness's default 1 ms epochs the default of 250
	// matches the paper's 250 ms reporting interval.
	SampleEvery int
	// Cooldown is the number of idle ticks owed after a plan completes
	// before the next decision may be taken, so consecutive reconfigurations
	// never chain back-to-back (default 2*SampleEvery).
	Cooldown int
	// Cost, when non-nil, gates every policy proposal on projected
	// profitability (see CostModel): unprofitable proposals are declined,
	// and declines are recorded in Decisions like issued plans. Nil means
	// every policy proposal is issued, as before.
	Cost *CostModel
	// Cluster, when non-nil, runs the control loop cluster-wide: load
	// telemetry is exchanged over the bus, and only the elected lowest-index
	// live process decides (see ClusterOptions). Nil means single-process.
	Cluster *ClusterOptions
	// OnDecision observes each decision this process makes, issued or
	// declined (instrumentation; not called for mirrored remote decisions).
	OnDecision func(d Decision)
}

func (o *AutoOptions) defaults() {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 250
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * o.SampleEvery
	}
}

// Decision records one autonomous reconfiguration — issued or, when a cost
// model vetoed the policy's proposal, declined.
type Decision struct {
	// Epoch is the tick at which the decision was taken.
	Epoch core.Time
	// Policy is the deciding policy's name.
	Policy string
	// Moves and Steps size the (proposed or issued) plan.
	Moves, Steps int
	// WindowRecs is the record count of the load window that triggered the
	// decision.
	WindowRecs uint64
	// Declined marks a proposal the cost model judged unprofitable; no plan
	// was issued. Reason is one of the cost model's Reason constants.
	Declined bool
	Reason   string
	// Volume and Gain are the cost model's two sides of the trade: state
	// records behind the moved bins, and service nanos recovered over the
	// credited horizon (both 0 when no cost model is configured).
	Volume, Gain uint64
	// Origin is the index of the process that took the decision (0 in
	// single-process runs; every cluster process records every decision).
	Origin int
}

// AutoController closes the control loop the paper leaves to an external
// controller: it samples a LoadMeter every SampleEvery ticks, asks its
// Policy for a target assignment over the sampled window, and when the
// policy acts, renders the diff into a plan under the configured Strategy
// and feeds it to the embedded Controller — which paces the steps exactly
// as it does for hand-written plans. A cooldown between reconfigurations
// keeps the loop stable while a migration's own disturbance drains.
//
// Tick it once per epoch in place of a plain Controller (it satisfies the
// harness Driver contract).
type AutoController struct {
	*Controller
	opts    AutoOptions
	current Assignment

	cooldown int // idle ticks still owed before the next decision

	// sampler cuts the load source (the meter itself, or the merged
	// cluster-wide view in cluster mode) into sampling windows; its cluster
	// field is the distributed control plane state (nil single-process).
	*sampler

	// lastHot and stability track how long the same worker has been the
	// window's hottest (consecutive sampling windows); the cost model's
	// stability cap consumes it.
	lastHot   int
	stability int

	decBuf []byte // decision frame scratch (cluster mode)

	// dmu guards decisions and current: both are written on the ticking
	// goroutine (and, in cluster mode, by mirrored remote decisions on bus
	// handler goroutines) and may be read from any other.
	dmu       sync.Mutex
	decisions []Decision
}

// loadSource is anything snapshotable like a LoadMeter; *core.LoadMeter and
// *core.ClusterLoadView both qualify.
type loadSource interface {
	Snapshot(into *core.LoadSnapshot) *core.LoadSnapshot
}

// sampler is the telemetry half of the control loop, shared by the
// AutoController and the membership autoscaler: every `every` ticks it
// broadcasts the local load increments (cluster mode) and cuts a new window
// from the source. window is the newest completed window and prev the
// cumulative snapshot it was cut from; both are reused by the next sample.
type sampler struct {
	every, ticks      int
	cluster           *clusterState // nil single-process
	source            loadSource
	prev, cur, window *core.LoadSnapshot
}

func newSampler(meter *core.LoadMeter, cluster *clusterState, every int) *sampler {
	s := &sampler{every: every, cluster: cluster, source: meter}
	if cluster != nil {
		s.source = cluster.view
	}
	// Seed the previous snapshot so the first window is a true delta.
	s.prev = s.source.Snapshot(nil)
	return s
}

// tick counts one driver tick and reports whether it completed a window.
func (s *sampler) tick() bool {
	s.ticks++
	if s.ticks%s.every != 0 {
		return false
	}
	if s.cluster != nil {
		s.cluster.sample()
	}
	s.cur = s.source.Snapshot(s.cur)
	s.window = s.cur.Delta(s.prev, s.window)
	s.prev, s.cur = s.cur, s.prev
	return true
}

// NewAutoController returns an auto controller over the given control
// handles and probe, starting from the initial assignment (len(initial)
// must equal the meter's bin count).
func NewAutoController(handles []*dataflow.InputHandle[core.Move], probe *dataflow.Probe, initial Assignment, opts AutoOptions) *AutoController {
	if opts.Meter == nil {
		panic("plan: AutoController needs a LoadMeter")
	}
	if opts.Policy == nil {
		panic("plan: AutoController needs a Policy")
	}
	if len(initial) != opts.Meter.Bins() {
		panic("plan: initial assignment size does not match the meter's bins")
	}
	opts.defaults()
	a := &AutoController{
		Controller: NewController(handles, probe),
		opts:       opts,
		current:    append(Assignment(nil), initial...),
		lastHot:    -1,
	}
	if c := opts.Cluster; c != nil {
		det := newDetector(*c, opts.SampleEvery)
		cs := newClusterState(opts.Meter, det, c.WorkersPerProc)
		cs.mirror = a.mirror
		det.telemetry = cs.onControl
		a.sampler = newSampler(opts.Meter, cs, opts.SampleEvery)
		det.start()
	} else {
		a.sampler = newSampler(opts.Meter, nil, opts.SampleEvery)
	}
	return a
}

// Tick samples and decides on the sampling grid, then delegates epoch
// advancement (and plan pacing) to the embedded Controller. Call exactly
// once per epoch from the driving goroutine.
func (a *AutoController) Tick(now core.Time) {
	if a.Idle() && a.cooldown > 0 {
		a.cooldown--
	}
	if a.sampler.tick() {
		a.observeStability()
		lead := true
		if a.cluster != nil {
			// Only the elected leader decides; a fresh leader not until the
			// frontier proves its predecessor's moves have drained, and no
			// leader until every live peer's telemetry has reached the view —
			// a window of mostly-local rows reads as a phantom imbalance.
			a.cluster.det.tick()
			lead = a.cluster.mayLead(now, a.probe.Frontier()) && a.cluster.covered()
		}
		if lead && a.Idle() && a.cooldown == 0 {
			a.decide(now)
		}
	}
	a.Controller.Tick(now)
}

// observeStability extends or resets the run of windows in which the same
// worker has been hottest. Service time is the signal when measured; record
// counts otherwise.
func (a *AutoController) observeStability() {
	loads := a.window.WorkerNanos
	if a.window.TotalNanos() == 0 {
		loads = a.window.WorkerRecs
	}
	hot := 0
	for w, l := range loads {
		if l > loads[hot] {
			hot = w
		}
	}
	if hot == a.lastHot {
		a.stability++
	} else {
		a.lastHot = hot
		a.stability = 1
	}
}

// decide asks the policy for a target over the current window, gates the
// proposal through the cost model (when configured), and issues the
// resulting plan. Both outcomes are recorded; neither repeats before the
// cooldown elapses.
func (a *AutoController) decide(now core.Time) {
	a.dmu.Lock()
	current := append(Assignment(nil), a.current...)
	a.dmu.Unlock()
	target, ok := a.opts.Policy.Target(current, a.window)
	if !ok {
		return
	}
	p := Build(a.opts.Strategy, current, target, a.opts.Batch)
	if len(p.Steps) == 0 {
		return
	}
	d := Decision{
		Epoch:      now,
		Policy:     a.opts.Policy.Name(),
		Moves:      p.NumMoves(),
		Steps:      len(p.Steps),
		WindowRecs: a.window.TotalRecs(),
		Origin:     a.origin(),
	}
	if a.opts.Cost != nil {
		// a.prev holds the newest cumulative snapshot after the swap in
		// Tick; its per-bin record counts proxy the state volume to move.
		v := a.opts.Cost.Evaluate(current, target, a.window, a.prev, a.stability)
		d.Volume, d.Gain = v.VolumeRecs, v.GainNanos
		if !v.Migrate {
			d.Declined, d.Reason = true, v.Reason
			a.cooldown = a.opts.Cooldown
			a.record(d, nil)
			return
		}
	}
	a.Controller.Start(p)
	a.dmu.Lock()
	a.current = target
	a.dmu.Unlock()
	a.cooldown = a.opts.Cooldown
	a.record(d, target)
}

// origin returns this process's decision origin index.
func (a *AutoController) origin() int {
	if a.opts.Cluster != nil {
		return a.opts.Cluster.Proc
	}
	return 0
}

// record appends a decision locally and, in cluster mode, broadcasts it so
// followers mirror it (and the new assignment, when one was issued) into
// their own records — every process's Result.Decisions converges.
func (a *AutoController) record(d Decision, assign Assignment) {
	a.dmu.Lock()
	a.decisions = append(a.decisions, d)
	a.dmu.Unlock()
	if a.cluster != nil {
		a.decBuf = appendDecisionFrame(a.decBuf[:0], d, assign)
		a.cluster.det.broadcast(a.decBuf)
	}
	if a.opts.OnDecision != nil {
		a.opts.OnDecision(d)
	}
}

// mirror records a decision a remote leader broadcast, together with the
// assignment it installed. Runs on the bus's serialized handler context.
func (a *AutoController) mirror(d Decision, assign Assignment) {
	a.dmu.Lock()
	defer a.dmu.Unlock()
	if !d.Declined && len(assign) == len(a.current) {
		copy(a.current, assign)
	}
	a.decisions = append(a.decisions, d)
}

// Decisions returns the reconfigurations issued so far.
func (a *AutoController) Decisions() []Decision {
	a.dmu.Lock()
	defer a.dmu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// Current returns the assignment the controller believes is in effect (or
// being installed, while a plan executes).
func (a *AutoController) Current() Assignment {
	a.dmu.Lock()
	defer a.dmu.Unlock()
	return append(Assignment(nil), a.current...)
}
