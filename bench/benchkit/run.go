package benchkit

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// Phase is one measured run of one workload in its own child process.
type Phase struct {
	Workload Workload
	// Kind is "sat" (saturating: throughput) or "paced" (open loop at a
	// fixed rate with migrations: latency, CPU per record and memory).
	Kind  string
	Seed  uint64
	Shape Shape
	// Trace records spans and installs the counting codec and listener.
	Trace bool
	// Origin is when the child process started; set-up time counts from it.
	Origin time.Time
}

// PhaseResult is what a child reports to its parent.
type PhaseResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	// Unfinished counts the migration plans the phase ended before the end
	// of: the host stalled for longer than the schedule has room for. That
	// is no wrong output, so it is not in Failed, but the phase measured
	// the stall and the run leaves it out (and fails if it has no other).
	Unfinished int    `json:"unfinished,omitempty"`
	Spans      []Span `json:"-"`
}

func (r *PhaseResult) fail(n int64, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	r.Failed += n
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// job is the workload-specific part of a phase over records of type T.
type job[T any] struct {
	// first is the first warm epoch; the timed phase starts warmEpochs
	// later.
	first, warmEpochs int64
	// build wires the query and the bench's sink on one worker and returns
	// the probe on the query's output.
	build func(proc int, w *dataflow.Worker, ctl dataflow.Stream[core.Move], in dataflow.Stream[T]) *dataflow.Probe
	// warm returns global worker g's records for warm epoch i (0-based).
	warm func(g int, i int64) []T
	// gen returns global worker g's n records for timed epoch e.
	gen harness.Gen[T]
	// codec is the state-transfer codec the build closures use; traced runs
	// wrap it so that the bins and bytes of every move are counted.
	codec *countingCodec
}

// warmWindow is how many epochs the warm load may run ahead of the output
// frontier: the load is closed-loop so that it never stages more than a
// few batches, which would otherwise show up as peak memory.
const warmWindow = 64

// driveOut is what one phase run produced, before the workload's checks.
type driveOut struct {
	results []harness.Result // per process
	errs    []error
	tracer  *Tracer
	root    int32
	et      *epochTrace // process 0's view of the harness loop
	codec   *countingCodec
	wire    *wireCount
	meshes  []*dataflow.Mesh
	// timed-phase resource deltas of the whole child
	cpuNs    int64
	mem1     memSnap
	maxRSSKB int64
}

// drive builds the dataflow on every process of the workload, warms it,
// and runs the timed phase through harness.Run.
func drive[T any](ph *Phase, j job[T]) *driveOut {
	wl := ph.Workload
	out := &driveOut{
		results: make([]harness.Result, wl.Procs),
		errs:    make([]error, wl.Procs),
		meshes:  make([]*dataflow.Mesh, wl.Procs),
		root:    -1,
		codec:   j.codec,
	}
	if ph.Trace {
		out.tracer = NewTracer(ph.Origin)
		out.root = out.tracer.Add("run", -1, 0, 0, fmt.Sprintf("workload=%s phase=%s seed=%d", wl.Name, ph.Kind, ph.Seed))
	}
	var specs []dataflow.ClusterSpec
	if wl.Procs > 1 {
		var err error
		if specs, out.wire, err = loopbackSpecs(wl.Procs, ph.Trace); err != nil {
			out.errs[0] = err
			return out
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < wl.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var spec *dataflow.ClusterSpec
			if specs != nil {
				spec = &specs[p]
			}
			out.results[p], out.errs[p] = runProc(ph, j, p, spec, out)
		}(p)
	}
	wg.Wait()
	out.maxRSSKB = maxRSSKB()
	if out.tracer != nil {
		out.tracer.End(out.root)
	}
	return out
}

// runProc is one process's share of a phase: join, build, warm, run.
// Process 0 carries the measurement hooks.
func runProc[T any](ph *Phase, j job[T], p int, spec *dataflow.ClusterSpec, out *driveOut) (harness.Result, error) {
	wl := ph.Workload
	var tr *Tracer // only process 0 records spans
	if p == 0 {
		tr = out.tracer
	}

	var mesh *dataflow.Mesh
	if spec != nil {
		id := tr.Begin("setup.join", out.root)
		var err error
		if mesh, err = dataflow.JoinMesh(*spec); err != nil {
			return harness.Result{}, err
		}
		tr.End(id)
		out.meshes[p] = mesh
	}

	id := tr.Begin("setup.build", out.root)
	exec := dataflow.NewExecution(dataflow.Config{Workers: wl.Workers, Mesh: mesh})
	firstWorker := p * wl.Workers
	totalWorkers := wl.Procs * wl.Workers
	var inputs []*dataflow.InputHandle[T]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[T](w, "data")
		inputs = append(inputs, in)
		pr := j.build(p, w, ctlStream, data)
		if w.Index() == firstWorker {
			probe = pr
		}
	})
	exec.Start()
	ctl := plan.NewController(ctlIns, probe)
	tr.End(id)

	// Warm load: closed-loop, one epoch per batch, behind the frontier.
	id = tr.Begin("setup.warm", out.root)
	for _, in := range inputs {
		in.AdvanceTo(core.Time(j.first))
	}
	ctl.Tick(core.Time(j.first - 1))
	for i := int64(0); i < j.warmEpochs; i++ {
		e := j.first + i
		for {
			f := probe.Frontier()
			if f == core.None || int64(f) >= e-warmWindow {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		for li, in := range inputs {
			in.SendBatchAt(core.Time(e), j.warm(firstWorker+li, i))
		}
		ctl.Tick(core.Time(e))
		for _, in := range inputs {
			in.AdvanceTo(core.Time(e + 1))
		}
	}
	opts := harness.Options{
		Rate:        phaseRate(ph),
		EpochEvery:  Epoch,
		Duration:    ph.Shape.Duration,
		ReportEvery: timelineWindow,
		TotalInputs: totalWorkers,
		FirstInput:  firstWorker,
		StartEpoch:  j.first + j.warmEpochs,
	}
	// Process 0 alone issues the plans; its moves reach every worker over
	// the broadcast control stream. Were every process to issue them, as
	// keycount.Run does for its one or two migrations, two processes a plan
	// apart after a stall would move bins back and forth.
	if ph.Kind == "paced" && p == 0 {
		opts.Migrations = schedule(wl, ph.Shape, opts.StartEpoch)
	}

	// harness.Run's start barrier waits for the warm load to drain; the
	// warm span is closed by the first timed epoch (see genEntry).
	et := &epochTrace{
		origin: ph.Origin, first: opts.StartEpoch, genAt: make([]int64, ph.Shape.Duration/Epoch),
		firstWorker: firstWorker, probe: probe, root: out.root, warmSpan: id,
	}
	if ph.Kind == "sat" {
		et.window, et.budget = satWindow, int64(ph.Shape.Duration)
	}
	gen := func(g int, e int64, n int) []T {
		entry := et.genEntry(g, e)
		var batch []T
		if !et.spent(entry) {
			batch = j.gen(g, e, n)
		}
		et.genReturn(entry, len(batch))
		return batch
	}
	if p != 0 {
		res := harness.Run(exec, inputs, ctl, probe, gen, opts)
		return res, exec.Err()
	}
	et.tr, et.measure = tr, true
	out.et = et
	res := harness.Run(exec, inputs, tracedDriver{Controller: ctl, et: et}, probe, gen, opts)
	out.cpuNs = cpuNow() - et.cpu0
	out.mem1 = readMem()
	tr.Add("drain", out.root, et.paceFrom, tr.Now(), "")
	return res, exec.Err()
}

// satWindow is how many epochs a saturating run may inject ahead of the
// output frontier. harness.Run's source is open-loop and stages without
// bound, so a run offered twice its capacity would measure the allocator
// and the collector growing a backlog of gigabytes; blocking the generator
// makes harness.Run run behind its schedule and inject each epoch as soon
// as the dataflow has room, which saturates it at whatever its capacity is.
// Once the phase's time is spent the generator hands out empty batches, so
// a sat phase lasts its budget however slow the machine is that day: the
// epochs left over carry nothing and pass in microseconds each.
const satWindow = 8

// phaseRate is the offered load of a phase in records per second.
func phaseRate(ph *Phase) int {
	switch {
	case ph.Kind == "sat":
		return ph.Workload.SatRate
	case ph.Shape.PacedRate != 0:
		return ph.Shape.PacedRate
	}
	return ph.Workload.PacedRate
}

// schedule lays the phase's migrations out: alternating direction, in the
// strategy pattern stepped, stepped, all-at-once, all-at-once.
func schedule(wl Workload, sh Shape, start int64) []harness.Migration {
	bins := 1 << uint(wl.LogBins)
	initial, imbalanced := Assignments(bins, wl.Procs*wl.Workers)
	var ms []harness.Migration
	at := sh.Settle + sh.Steady
	for k := 0; k < sh.Migrations; k++ {
		from, to := initial, imbalanced
		if k%2 == 1 {
			from, to = imbalanced, initial
		}
		strategy := plan.AllAtOnce
		if StrategyOf(k) == "fluid" {
			strategy = plan.Fluid
		}
		ms = append(ms, harness.Migration{
			AtEpoch: start + int64(at/Epoch),
			Plan:    plan.Build(strategy, from, to, 0),
		})
		at += sh.Slot[StrategyOf(k)]
	}
	return ms
}

// StrategyOf names the strategy of the k-th migration of a run.
func StrategyOf(k int) string {
	if k%4 < 2 {
		return "fluid"
	}
	return "all-at-once"
}

// Assignments returns the two assignments every migration moves between:
// the round-robin initial one, and one in which every second bin of the
// upper half of the workers has moved to the lower half. Between them lies
// a quarter of the bins, and so of the state: the paper's section 5 move.
func Assignments(bins, workers int) (initial, imbalanced plan.Assignment) {
	initial = plan.Initial(bins, workers)
	imbalanced = append(plan.Assignment(nil), initial...)
	half := (workers + 1) / 2
	for b, w := range initial {
		if w >= half && (b/workers)%2 == 0 {
			imbalanced[b] = w - half
		}
	}
	return initial, imbalanced
}

// share is global worker g's part of perEpoch records split over total
// workers, exactly as harness.Run splits it.
func share(perEpoch, total, g int) int {
	n := perEpoch / total
	if g < perEpoch%total {
		n++
	}
	return n
}

// --- measurement -----------------------------------------------------------

// timelineWindow is the width of a window of harness.Run's latency
// timeline: every latency the benchmark reports is read from that timeline
// (the frontier passing an epoch minus the epoch's injection deadline, by
// the harness's own prober on process 0), which keeps the exact maximum and
// log-bucketed quantiles of the epochs that completed in each window.
const timelineWindow = 20 * time.Millisecond

// epochTrace turns the calls harness.Run makes into the bench's callbacks —
// the generator and the driver — into measurements and, when tracing,
// spans. harness.Run calls, per epoch: gen and SendBatchAt per worker, then
// Idle/Start (when a migration is due), then Tick, then AdvanceTo per input
// and the sleep to the next deadline. SendBatchAt and AdvanceTo are calls
// on a concrete handle the bench cannot wrap, so their spans are the gaps
// between the calls it can see.
type epochTrace struct {
	origin      time.Time // the child's start: the clock of genAt and the spans
	first       int64     // first timed epoch
	genAt       []int64   // when the generator was first asked for each timed epoch
	firstWorker int
	probe       *dataflow.Probe
	window      int64   // sat: block the generator this many epochs ahead of the frontier
	budget      int64   // sat: ns of injecting after which the generator runs dry
	measure     bool    // process 0: take the resource snapshots and the backlog
	tr          *Tracer // process 0 of a traced run
	root        int32
	warmSpan    int32

	cpu0       int64   // child CPU at the first timed epoch
	mem0       memSnap // and the allocator's counters then
	backlogMax int64   // epochs injected but not yet complete, maximum

	epoch      int32 // open epoch span
	injectFrom int64 // gen returned, SendBatchAt running; 0 when closed
	paceFrom   int64 // Tick returned; AdvanceTo and the pacing sleep follow
	injectNs   int64 // total time in SendBatchAt
	records    int64 // records this process generated
}

func (et *epochTrace) now() int64 { return int64(time.Since(et.origin)) }

func (et *epochTrace) genEntry(g int, e int64) int64 {
	now := et.now()
	et.closeInject(now)
	if g != et.firstWorker {
		return now
	}
	i := e - et.first
	et.genAt[i] = now
	if et.measure {
		if i == 0 {
			et.cpu0 = cpuNow()
			et.mem0 = readMem()
			et.tr.End(et.warmSpan)
		}
		if f := et.probe.Frontier(); f != core.None {
			et.backlogMax = max(et.backlogMax, e-int64(f))
		}
		if et.tr != nil {
			if et.paceFrom != 0 {
				et.tr.Add("pace", et.root, et.paceFrom, now, "")
			}
			et.epoch = et.tr.Add("epoch", et.root, now, 0, "")
		}
	}
	if et.window > 0 && !et.spent(now) {
		for {
			f := et.probe.Frontier()
			if f == core.None || e-int64(f) < et.window {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		now = et.now()
	}
	return now
}

// spent reports whether a sat phase's injection time is over.
func (et *epochTrace) spent(now int64) bool {
	return et.budget > 0 && now-et.genAt[0] > et.budget
}

func (et *epochTrace) genReturn(entry int64, n int) {
	now := et.now()
	et.records += int64(n)
	if et.tr != nil {
		et.tr.Add("gen", et.epoch, entry, now, "")
	}
	et.injectFrom = now
}

func (et *epochTrace) closeInject(now int64) {
	if et.injectFrom == 0 {
		return
	}
	et.injectNs += now - et.injectFrom
	if et.tr != nil {
		et.tr.Add("inject", et.epoch, et.injectFrom, now, "")
	}
	et.injectFrom = 0
}

// tracedDriver is the plan.Controller with the driver calls harness.Run
// makes once per epoch observed.
type tracedDriver struct {
	*plan.Controller
	et *epochTrace
}

func (d tracedDriver) Idle() bool {
	d.et.closeInject(d.et.now())
	return d.Controller.Idle()
}

func (d tracedDriver) Tick(now core.Time) {
	et := d.et
	entry := et.now()
	et.closeInject(entry)
	d.Controller.Tick(now)
	exit := et.now()
	if et.tr != nil && int64(now) >= et.first {
		et.tr.Add("tick", et.epoch, entry, exit, "")
		et.tr.EndAt(et.epoch, exit)
		et.paceFrom = exit
	}
}

// --- resources ---------------------------------------------------------------

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// --- the loopback cluster ------------------------------------------------------

// loopbackSpecs pre-binds one loopback listener per process, as
// cluster_test.go does. With count set, accepted connections are wrapped to
// count the bytes that cross them.
func loopbackSpecs(n int, count bool) ([]dataflow.ClusterSpec, *wireCount, error) {
	hosts := make([]string, n)
	lns := make([]net.Listener, n)
	var wc *wireCount
	if count {
		wc = &wireCount{}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		hosts[i] = ln.Addr().String()
		if count {
			ln = countingListener{Listener: ln, wc: wc}
		}
		lns[i] = ln
	}
	specs := make([]dataflow.ClusterSpec, n)
	for i := range specs {
		specs[i] = dataflow.ClusterSpec{Hosts: hosts, Process: i, Listener: lns[i], DialTimeout: 15 * time.Second}
	}
	return specs, wc, nil
}

// wireCount totals the bytes on the wire. Every connection between two
// processes is accepted by exactly one of them, so counting reads and
// writes on accepted connections counts each byte once.
type wireCount struct{ bytes atomic.Int64 }

type countingListener struct {
	net.Listener
	wc *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, wc: l.wc}, nil
}

// countingConn hides the *net.TCPConn behind an interface, which makes
// net.Buffers fall back from one writev to a Write per buffer: the traced
// run pays for the count, the untraced run does not install it.
type countingConn struct {
	net.Conn
	wc *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wc.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wc.bytes.Add(int64(n))
	return n, err
}

// --- the counting codec ---------------------------------------------------------

// countingCodec is the binary transfer codec with, in traced runs, the bins
// and bytes of every encode counted: the boundary between the migration
// mechanism and the state codec.
type countingCodec struct {
	core.Codec
	on          bool
	bins, bytes atomic.Int64
}

func newCodec(count bool) *countingCodec {
	c, err := core.CodecByName("binary")
	if err != nil {
		panic(err)
	}
	return &countingCodec{Codec: c, on: count}
}

// transfer is the codec to hand to the operators: the plain one unless
// counting.
func (c *countingCodec) transfer() core.Codec {
	if c.on {
		return c
	}
	return c.Codec
}

func (c *countingCodec) EncodeBin(bin core.Migratable, buf []byte) ([]byte, error) {
	before := len(buf)
	out, err := c.Codec.EncodeBin(bin, buf)
	c.bins.Add(1)
	c.bytes.Add(int64(len(out) - before))
	return out, err
}

// --- turning a run into metrics ----------------------------------------------------

// summarize fills the metrics every workload shares from a finished run.
func summarize(ph *Phase, out *driveOut, r *PhaseResult) {
	wl := ph.Workload
	for p, err := range out.errs {
		if err != nil {
			r.fail(1, "process %d: %v", p, err)
		}
	}
	var records int64
	var elapsed float64
	for _, res := range out.results {
		records += res.Records
		elapsed = max(elapsed, res.Elapsed)
	}
	r.Attempted = records
	et := out.et
	if et == nil || records == 0 || elapsed == 0 {
		return
	}
	mt := r.Metrics
	// harness.Run sleeps to the first epoch's deadline, one epoch after its
	// clock starts, and then asks the generator for it.
	start := et.genAt[0] - int64(Epoch)
	mt["setup_s"] = float64(start) / 1e9
	if ph.Kind == "sat" {
		mt["records_s"] = float64(records) / elapsed
		return
	}
	mt["cpu_ns_rec"] = float64(out.cpuNs) / float64(records)
	mt["peak_rss_mb"] = float64(out.maxRSSKB) / 1024
	mt["alloc.objs_rec"] = float64(out.mem1.mallocs-et.mem0.mallocs) / float64(records)
	mt["alloc.bytes_rec"] = float64(out.mem1.bytes-et.mem0.bytes) / float64(records)
	mt["gc.pause_max_ms"] = out.mem1.pauseMaxSince(et.mem0)
	mt["dataflow.backlog_max_epochs"] = float64(et.backlogMax)
	if et.records > 0 {
		mt["harness.inject_ns_rec"] = float64(et.injectNs) / float64(et.records)
	}
	if out.wire != nil {
		mt["mesh.wire_bytes_rec"] = float64(out.wire.bytes.Load()) / float64(records)
	}
	if mesh := out.meshes[0]; mesh != nil {
		sent, _ := mesh.DataCounters()
		var frames uint64
		for _, n := range sent {
			frames += n
		}
		mt["mesh.frames_epoch"] = float64(frames) / float64(len(et.genAt))
	}

	// How late the open-loop generator ran, against a schedule of one call
	// per epoch counted from the first.
	lag := make([]float64, len(et.genAt))
	for i, at := range et.genAt {
		lag[i] = float64(at-et.genAt[0]-int64(i)*int64(Epoch)) / 1e6
	}
	sort.Float64s(lag)
	mt["harness.gen_lag_p99_ms"], _ = TailPercentile(lag, 0.99)

	res := out.results[0]
	r.Unfinished = ph.Shape.Migrations - len(res.MigrationSpans)
	// Controller.Span counts in epochs; epoch e is due (e-first+1) epochs
	// after the timeline's clock starts.
	since := func(seconds float64) time.Duration {
		return time.Duration(seconds*float64(time.Second)) - time.Duration(et.first-1)*Epoch
	}
	cl := Classifier{Settle: ph.Shape.Settle, Tail: ph.Shape.Tail, Guard: ph.Shape.Guard}
	for k, sp := range res.MigrationSpans {
		cl.Windows = append(cl.Windows, Window{Start: since(sp.Start), End: since(sp.End), Strategy: StrategyOf(k)})
	}
	// The gated latencies are made of the worst epoch of each window of the
	// timeline, a tail statistic that is exact, and are medians of it: over
	// the steady windows, and over each strategy's migrations of the
	// window's worst. A median moves when half of what it is taken over
	// does, which a regression of the engine does and a neighbour's burst
	// on the host does not.
	sm := map[string][]float64{}
	windows := make([][]float64, len(cl.Windows))
	for _, w := range res.Timeline.Samples() {
		if w.Max == 0 {
			continue // no epoch completed in it
		}
		to := time.Duration(w.At * float64(time.Second))
		switch c := cl.Class(to-timelineWindow, to); c {
		case ClassNone:
		case ClassSteady:
			sm["steady_wmax_ms"] = append(sm["steady_wmax_ms"], w.Max)
			sm["lat.steady_p50_ms"] = append(sm["lat.steady_p50_ms"], w.P50)
		default:
			windows[c] = append(windows[c], w.Max)
		}
	}
	steady := append([]float64(nil), sm["steady_wmax_ms"]...)
	sort.Float64s(steady)
	mt["lat.steady_p90w_ms"] = Quantile(steady, 0.9)
	mt["lat.steady_max_ms"] = Quantile(steady, 1)
	moved := len(plan.Diff(Assignments(1<<uint(wl.LogBins), wl.Procs*wl.Workers)))
	for k, w := range cl.Windows {
		s, maxima := w.Strategy, windows[k]
		sort.Float64s(maxima)
		dur := (w.End - w.Start).Seconds()
		sm["mig_dur_s."+s] = append(sm["mig_dur_s."+s], dur)
		sm["mig_peak_ms."+s] = append(sm["mig_peak_ms."+s], Quantile(maxima, 1))
		if s == "fluid" {
			// What a fluid plan does to the worst epoch of a typical 20 ms
			// of its window; and one step per moved bin.
			sm["mig_wmax_ms.fluid"] = append(sm["mig_wmax_ms.fluid"], Quantile(maxima, 0.5))
			sm["plan.step_ms.fluid"] = append(sm["plan.step_ms.fluid"], 1000*dur/float64(moved))
		} else if c := out.codec; c.on && dur > 0 {
			perMigration := float64(c.bytes.Load()) / float64(len(cl.Windows))
			sm["core.mig_mb_s.all-at-once"] = append(sm["core.mig_mb_s.all-at-once"], perMigration/1e6/dur)
		}
	}
	for name, vals := range sm {
		mt[name] = Median(vals)
	}
	if tr := out.tracer; tr != nil {
		for k, w := range cl.Windows {
			dir := "out"
			if k%2 == 1 {
				dir = "back"
			}
			tr.Add("migration", out.root, start+int64(w.Start), start+int64(w.End),
				fmt.Sprintf("strategy=%s direction=%s bins=%d", w.Strategy, dir, moved))
		}
	}
}
