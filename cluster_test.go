// Cluster equivalence: the acceptance test of the multi-process runtime. A
// 3-process local cluster (three meshes over loopback TCP, each running its
// own Execution with its own progress tracker, exactly what three OS
// processes would run) executes keycount and NEXMark q4 under an active
// migration plan, and the output record multiset must equal that of the
// single-process run with the same total worker count. scripts/cluster.sh
// performs the same check against the real binaries in real processes.
package megaphone_test

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/nexmark"
	"megaphone/internal/operators"
	"megaphone/internal/plan"
)

// localClusterSpecs pre-binds n loopback listeners and returns one
// ClusterSpec per process.
func localClusterSpecs(t *testing.T, n int) []dataflow.ClusterSpec {
	t.Helper()
	hosts := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		hosts[i] = ln.Addr().String()
	}
	specs := make([]dataflow.ClusterSpec, n)
	for i := range specs {
		specs[i] = dataflow.ClusterSpec{
			Hosts:       hosts,
			Process:     i,
			Listener:    lns[i],
			DialTimeout: 15 * time.Second,
		}
	}
	return specs
}

// collector is a concurrency-safe line multiset.
type collector struct {
	mu    sync.Mutex
	lines []string
}

func (c *collector) add(line string) {
	c.mu.Lock()
	c.lines = append(c.lines, line)
	c.mu.Unlock()
}

func (c *collector) canonical() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Strings(c.lines)
	return strings.Join(c.lines, "\n")
}

// TestClusterKeycountEquivalence runs keycount's two-migration plan on a
// 3-process cluster of one worker per process, where every move crosses a
// process boundary, and of three, where the same plan moves some bins
// between workers of one process and others across (with an even worker
// count the plan's halves split along process boundaries, so every move
// would cross). The output multiset must equal the single-process run's,
// and the codec must have encoded exactly one bin per cross-process move:
// none in the single-process run, none for a move within a process.
func TestClusterKeycountEquivalence(t *testing.T) {
	for _, wpp := range []int{1, 3} {
		t.Run(fmt.Sprintf("3x%d", wpp), func(t *testing.T) { testClusterKeycount(t, 3, wpp) })
	}
}

func testClusterKeycount(t *testing.T, procs, wpp int) {
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 12,
			Preload: true,
		},
		Workers:  0, // set per run
		Rate:     20000,
		Duration: 1200 * time.Millisecond,
		// Nine workers on a small host (under -race, too) finish both
		// migrations within the run at 3 ms epochs, not at 1 ms.
		EpochEvery: time.Duration(wpp) * time.Millisecond,
		Strategy:   plan.Batched,
		Batch:      4,
		MigrateAt:  400 * time.Millisecond,
		MigrateTwo: true,
	}
	// keycount.Run's plan moves the bins of the upper half of the workers to
	// the lower half and back; every bin is preloaded, so each move ships one.
	total := procs * wpp
	var lower []int
	for w := 0; w < (total+1)/2; w++ {
		lower = append(lower, w)
	}
	bins := 1 << base.LogBins
	initial := plan.Initial(bins, total)
	var cross, local int64
	for _, m := range plan.Diff(initial, plan.Rebalance(bins, lower)) {
		if initial[m.Bin]/wpp != m.Worker/wpp {
			cross += 2 // out, and back
		} else {
			local += 2
		}
	}
	if cross == 0 || (wpp > 1) != (local > 0) {
		t.Fatalf("%dx%d: the plan makes %d cross-process and %d in-process moves", procs, wpp, cross, local)
	}

	// Single-process reference with the same total worker count.
	var ref collector
	refCodec := &tagCount{Codec: core.TransferBinary}
	refCfg := base
	refCfg.Workers = total
	refCfg.Transfer = refCodec
	refCfg.Sink = ref.add
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 || len(refRes.MigrationSpans) != 2 {
		t.Fatalf("reference run degenerate: %d records, %d migrations", refRes.Records, len(refRes.MigrationSpans))
	}
	if n := refCodec.binary.Load() + refCodec.gob.Load(); n != 0 {
		t.Errorf("single-process run encoded %d bins; every move there is in-process", n)
	}

	specs := localClusterSpecs(t, procs)
	codec := &tagCount{Codec: core.TransferBinary}
	var clu collector
	var wg sync.WaitGroup
	var mu sync.Mutex
	var clusterRecords int64
	finished := 2 // migrations every process saw complete
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = wpp
			cfg.Cluster = &specs[p]
			cfg.Transfer = codec
			cfg.Sink = clu.add
			res, err := keycount.Run(cfg)
			errs[p] = err
			mu.Lock()
			clusterRecords += res.Records
			finished = min(finished, len(res.MigrationSpans))
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	if clusterRecords != refRes.Records {
		t.Fatalf("cluster injected %d records, single-process %d", clusterRecords, refRes.Records)
	}
	if got := codec.binary.Load() + codec.gob.Load(); got != cross {
		t.Errorf("cluster encoded %d bins, want one per cross-process move: %d (every process completed %d of 2 migrations)",
			got, cross, finished)
	}
	if got, want := clu.canonical(), ref.canonical(); got != want {
		t.Fatalf("cluster output multiset differs from single-process run (cluster %d lines, single %d lines)",
			len(clu.lines), len(ref.lines))
	}
}

// fbCount is a per-key count the binary format has no encoding for (neither
// a scalar nor a BinaryRec), so bins of MapState[uint64, fbCount] take the
// gob fallback.
type fbCount struct{ N uint64 }

// tagCount wraps the state codec and counts the bins it encodes in each
// payload format, and records the largest encoding and their total.
type tagCount struct {
	core.Codec
	gob, binary atomic.Int64

	mu             sync.Mutex
	largest, total int
}

func (c *tagCount) EncodeBin(bin core.Migratable, buf []byte) ([]byte, error) {
	p, err := c.Codec.EncodeBin(bin, buf)
	if err == nil && len(p) > len(buf) {
		if p[len(buf)] == 0x00 {
			c.gob.Add(1)
		} else {
			c.binary.Add(1)
		}
		c.mu.Lock()
		c.largest = max(c.largest, len(p)-len(buf))
		c.total += len(p) - len(buf)
		c.mu.Unlock()
	}
	return p, err
}

// runCount runs a word count over per-key state W for 40 epochs of
// deterministic input: on two workers in this process when spec is nil, or
// as one single-worker process of a two-mesh cluster. With migrate, process
// 0 issues one fluid plan that moves worker 1's bins to worker 0 from epoch
// 10 and then back.
func runCount[W any](spec *dataflow.ClusterSpec, codec core.Codec, migrate bool, collect func(string), add func(st *W, v int64) uint64) error {
	workers, first := 2, 0
	var mesh *dataflow.Mesh
	if spec != nil {
		var err error
		if mesh, err = dataflow.JoinMesh(*spec); err != nil {
			return err
		}
		workers, first = 1, spec.Process
	}
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers, Mesh: mesh})
	var dataIns []*dataflow.InputHandle[core.KV[uint64, int64]]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		in, data := dataflow.NewInput[core.KV[uint64, int64]](w, "data")
		ctlIns, dataIns = append(ctlIns, ctl), append(dataIns, in)
		cfg := core.Config{Name: "count", LogBins: 3, Transfer: codec}
		counts := core.StateMachine(w, cfg, ctlStream, data,
			func(k uint64) uint64 { return core.Mix64(k) },
			func(k uint64, v int64, st *W, emit func([2]uint64)) {
				emit([2]uint64{k, add(st, v)})
			}, nil)
		operators.Sink(w, "collect", counts, func(_ core.Time, recs [][2]uint64) {
			for _, r := range recs {
				collect(fmt.Sprintf("%d:%d", r[0], r[1]))
			}
		})
		if p := dataflow.NewProbe(w, counts); w.Index() == first {
			probe = p
		}
	})
	exec.Start()

	ctl := plan.NewController(ctlIns, probe)
	for e := core.Time(1); e <= 40 || !ctl.Idle(); e++ {
		for li, in := range dataIns {
			if e > 40 {
				break
			}
			batch := make([]core.KV[uint64, int64], 16)
			for i := range batch {
				key := core.Mix64(uint64(e)*1000+uint64(first+li)*100+uint64(i)) % 256
				batch[i] = core.KV[uint64, int64]{Key: key, Val: 1}
			}
			in.SendBatchAt(e, batch)
		}
		if migrate && e == 10 && first == 0 {
			out := plan.Build(plan.Fluid, plan.Initial(8, 2), plan.Rebalance(8, []int{0}), 1)
			back := plan.Build(plan.Fluid, plan.Rebalance(8, []int{0}), plan.Initial(8, 2), 1)
			out.Steps = append(out.Steps, back.Steps...)
			ctl.Start(out)
		}
		ctl.Tick(e)
		for _, in := range dataIns {
			in.AdvanceTo(e + 1)
		}
	}
	ctl.Close()
	for _, in := range dataIns {
		in.Close()
	}
	exec.Wait()
	return nil
}

// TestClusterFallbackStateMigration keeps the codec covered where it runs on
// a migration — across processes — for both payload formats: on a two-mesh
// loopback cluster, worker 1's bins migrate to process 0 and back, and the
// output multiset equals that of an unmigrated single-process run. An int64
// count ships in the binary format; fbCount, which has no binary encoding,
// in the gob fallback (no benchmark workload's state takes it).
func TestClusterFallbackStateMigration(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		testCrossProcessMigration(t, func(st *int64, v int64) uint64 { *st += v; return uint64(*st) }, 0x01)
	})
	t.Run("fallback", func(t *testing.T) {
		testCrossProcessMigration(t, func(st *fbCount, v int64) uint64 { st.N += uint64(v); return st.N }, 0x00)
	})
}

// testCrossProcessMigration runs runCount over state W unmigrated in one
// process and migrating on two meshes, and checks the outputs match and that
// each of the 8 cross-process moves (4 bins out, 4 back) encoded exactly one
// bin, in the format tag names.
func testCrossProcessMigration[W any](t *testing.T, add func(st *W, v int64) uint64, tag byte) {
	var ref collector
	if err := runCount(nil, nil, false, ref.add, add); err != nil {
		t.Fatal(err)
	}
	if len(ref.lines) == 0 {
		t.Fatal("reference run produced no output")
	}

	specs := localClusterSpecs(t, 2)
	codec := &tagCount{Codec: core.TransferBinary}
	var clu collector
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := range specs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = runCount(&specs[p], codec, true, clu.add, add)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	inTag, other := codec.binary.Load(), codec.gob.Load()
	if tag == 0x00 {
		inTag, other = other, inTag
	}
	if inTag != 8 || other != 0 {
		t.Errorf("migrated bins: %d tagged %#x, %d in the other format; want 8 and 0", inTag, tag, other)
	}
	if got, want := clu.canonical(), ref.canonical(); got != want {
		t.Fatalf("migrated cluster output differs from the unmigrated run (cluster %d lines, reference %d)",
			len(clu.lines), len(ref.lines))
	}
}

// epochCollector canonicalizes running-aggregate outputs: q4 emits one
// running average per closed auction, and the order of same-epoch closings
// within one category is inherently nondeterministic (it is already
// unstable across two identical single-process runs). The deterministic
// unit is the *last* value per (epoch, key) — the end-of-epoch aggregate
// state, which frontier-ordered application fixes exactly — so the
// collector keeps, per output batch, only each line's final occurrence
// keyed by (epoch, first space-separated field). Each key belongs to
// exactly one batch per epoch (one bin owner per time), so keep-last per
// batch composes into a deterministic cluster-wide multiset.
type epochCollector struct {
	mu   sync.Mutex
	last map[string]string // "epoch key" -> final line
	n    int               // total records observed
}

func (c *epochCollector) add(t nexmark.Time, lines []string) {
	c.mu.Lock()
	if c.last == nil {
		c.last = map[string]string{}
	}
	c.n += len(lines)
	for _, line := range lines {
		key := line
		if i := strings.IndexByte(line, ' '); i >= 0 {
			key = line[:i]
		}
		c.last[fmt.Sprintf("%d %s", uint64(t), key)] = line
	}
	c.mu.Unlock()
}

func (c *epochCollector) canonical() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.last))
	for k, v := range c.last {
		out = append(out, k+" -> "+v)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func TestClusterNexmarkQ4Equivalence(t *testing.T) {
	const procs, wpp = 3, 1
	base := nexmark.RunConfig{
		Query: "q4",
		Params: nexmark.Params{
			Impl:    nexmark.Megaphone,
			LogBins: 4,
		},
		Gen:        nexmark.GenConfig{ActiveAuctions: 100, ActivePeople: 100, AuctionEpochs: 30},
		Rate:       20000,
		Duration:   1200 * time.Millisecond,
		EpochEvery: time.Millisecond,
		Strategy:   plan.Batched,
		Batch:      4,
		MigrateAt:  400 * time.Millisecond,
	}

	var ref epochCollector
	refCfg := base
	refCfg.Workers = procs * wpp
	refCfg.Params.Sink = ref.add
	refRes, err := nexmark.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 {
		t.Fatal("reference run injected no events")
	}
	if ref.n == 0 {
		t.Fatal("reference run produced no outputs (q4 should close auctions)")
	}

	specs := localClusterSpecs(t, procs)
	var clu epochCollector
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = wpp
			cfg.Cluster = &specs[p]
			cfg.Params.Sink = clu.add
			_, errs[p] = nexmark.Run(cfg)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	if clu.n != ref.n {
		t.Fatalf("cluster emitted %d q4 records, single-process %d", clu.n, ref.n)
	}
	if got, want := clu.canonical(), ref.canonical(); got != want {
		t.Fatalf("cluster q4 end-of-epoch aggregates differ from single-process run (cluster %d keys, single %d keys)",
			len(clu.last), len(ref.last))
	}
}

// TestClusterAutoscaleEquivalence is the adaptive half of the equivalence
// story: a hot-shift workload under -auto (LoadBalance) in a 3-process
// cluster must produce the same output multiset as the single-process run
// with the same total worker count. The migrations themselves differ — the
// cluster's elected controller decides from asynchronously merged telemetry,
// so its decision epochs are not reproducible — but Property 1 makes the
// outputs invariant to when (and whether) any migration runs, which is
// exactly what this pins.
func TestClusterAutoscaleEquivalence(t *testing.T) {
	const procs, wpp = 3, 1
	newAuto := func() *plan.AutoOptions {
		return &plan.AutoOptions{
			// The hot set here spreads 3/2/3 bins over the three workers, a
			// true max/mean of ~1.13 — the band must sit below that so every
			// sampled window proposes a rebalance deterministically, rather
			// than only when burst noise pushes a window past the trigger.
			Policy:   plan.LoadBalance{Hysteresis: 0.1},
			Strategy: plan.Optimized,
			Batch:    4,
			// Sample fast enough for several decisions inside the short run.
			SampleEvery: 100,
			Cooldown:    200,
		}
	}
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.KeyCount,
			LogBins: 4,
			Domain:  1 << 12,
			Preload: true,
		},
		Workers:    0, // set per run
		Rate:       20000,
		Duration:   1500 * time.Millisecond,
		EpochEvery: time.Millisecond,
		Workload: harness.Workload{
			Kind:        harness.HotShift,
			HotFraction: 0.85,
			HotKeys:     16,
			// One bin's span times two: the hot set concentrates on a
			// power-of-two residue class so one worker draws most of it.
			HotStride:  uint64((1 << 12) >> 4 * 2),
			ShiftEvery: 500,
		},
	}

	var ref collector
	refCfg := base
	refCfg.Workers = procs * wpp
	refCfg.Auto = newAuto()
	refCfg.Sink = ref.add
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 {
		t.Fatal("reference run injected no records")
	}

	specs := localClusterSpecs(t, procs)
	var clu collector
	var wg sync.WaitGroup
	var mu sync.Mutex
	var clusterRecords int64
	results := make([]harness.Result, procs)
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = wpp
			cfg.Cluster = &specs[p]
			cfg.Auto = newAuto()
			cfg.Sink = clu.add
			res, err := keycount.Run(cfg)
			results[p], errs[p] = res, err
			mu.Lock()
			clusterRecords += res.Records
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	if clusterRecords != refRes.Records {
		t.Fatalf("cluster injected %d records, single-process %d", clusterRecords, refRes.Records)
	}
	if got, want := clu.canonical(), ref.canonical(); got != want {
		t.Fatalf("cluster -auto output multiset differs from single-process -auto run (cluster %d lines, single %d lines)",
			len(clu.lines), len(ref.lines))
	}
	// The elected controller (process 0 stays alive throughout, so it is the
	// sole leader) must actually have decided something, and only it may have.
	for p, res := range results {
		for _, d := range res.Decisions {
			if d.Origin != 0 {
				t.Fatalf("process %d recorded a decision from origin %d; only process 0 may decide", p, d.Origin)
			}
		}
	}
	if len(results[0].Decisions) == 0 {
		t.Fatal("cluster leader took no decisions against a hot-shift workload")
	}
}
