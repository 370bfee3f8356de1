// Transport failure during an active migration: a 2-process cluster routes
// its one TCP session through a killable proxy, a multi-step migration is
// started, and the connection is severed by byte count shortly after the
// first step goes out — mid frame. The transport's reconnect-with-replay
// must redeliver the lost migration frames exactly once: every moved bin
// installs exactly once at its new owner (Handle.OnInstall) and the output
// multiset matches a single-process run. TestMigrationFrameBound moves more
// state to one worker in one step than a frame may hold. Both run under
// -race in CI.
package megaphone_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/operators"
	"megaphone/internal/plan"
)

// chaosProxy forwards one TCP address to a backend, counting
// client->backend bytes, and severs every active connection once an armed
// byte threshold is crossed. The listener keeps accepting afterwards, so
// the transport's redial comes back through the proxy.
type chaosProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	conns []net.Conn

	forwarded atomic.Int64
	killAt    atomic.Int64 // 0 = disarmed
	once      sync.Once
	severed   chan struct{}
}

func startChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend, severed: make(chan struct{})}
	go p.accept()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// armAfter severs all connections once extra more client->backend bytes
// have been forwarded.
func (p *chaosProxy) armAfter(extra int64) {
	p.killAt.Store(p.forwarded.Load() + extra)
}

func (p *chaosProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, b)
		p.mu.Unlock()
		go func() {
			io.Copy(b, &countingReader{r: c, p: p})
			b.Close()
		}()
		go func() {
			io.Copy(c, b)
			c.Close()
		}()
	}
}

// sever closes every live pipe (once): both halves of the session see a
// broken connection mid-frame.
func (p *chaosProxy) sever() {
	p.once.Do(func() {
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.conns = p.conns[:0]
		p.mu.Unlock()
		close(p.severed)
	})
}

func (p *chaosProxy) close() { p.ln.Close(); p.sever() }

type countingReader struct {
	r io.Reader
	p *chaosProxy
}

func (cr *countingReader) Read(b []byte) (int, error) {
	n, err := cr.r.Read(b)
	total := cr.p.forwarded.Add(int64(n))
	if at := cr.p.killAt.Load(); at > 0 && total >= at {
		cr.p.sever()
	}
	return n, err
}

type migChaosState = core.MapState[uint64, uint64]

// buildMigChaos wires the hash-count dataflow whose bins the chaos tests
// migrate, each bin one wire record of several kilobytes.
func buildMigChaos(w *dataflow.Worker, ctl dataflow.Stream[core.Move], data dataflow.Stream[uint64],
	h *core.Handle[uint64, migChaosState, [2]uint64], collect func(string), codec core.Codec) *dataflow.Probe {
	out := core.Unary(w,
		core.Config{Name: "mig-chaos", LogBins: 3, Transfer: codec},
		ctl, data,
		func(k uint64) uint64 { return core.Mix64(k) },
		func() *migChaosState { return &migChaosState{M: make(map[uint64]uint64)} },
		func(t core.Time, k uint64, s *migChaosState, _ *core.Notificator[uint64, migChaosState, [2]uint64], emit func([2]uint64)) {
			s.M[k]++
			emit([2]uint64{k, s.M[k]})
		},
		h)
	operators.Sink(w, "collect", out, func(_ core.Time, recs [][2]uint64) {
		for _, r := range recs {
			collect(fmt.Sprintf("%d:%d", r[0], r[1]))
		}
	})
	return dataflow.NewProbe(w, out)
}

// preloadMigChaos fills the bins initially owned by worker 1 (the ones the
// plan moves) with enough synthetic entries that each migration step is a
// multi-kilobyte frame.
func preloadMigChaos(h *core.Handle[uint64, migChaosState, [2]uint64]) {
	for bin := 1; bin < 8; bin += 2 {
		bin := bin
		h.Preload(1, bin, func(s *migChaosState) {
			if s.M == nil {
				s.M = make(map[uint64]uint64)
			}
			for i := uint64(0); i < 2048; i++ {
				s.M[uint64(bin)<<32|(1<<20)+i] = i%13 + 1
			}
		})
	}
}

// runMigChaos drives one participant (or the single-process reference when
// spec is nil): 60 epochs of deterministic input, a migration of worker 1's
// bins to worker 0 under strategy starting at epoch 20 (a batched one of
// batch 1 makes 4 steps), with onIssue invoked when this process's
// controller sends the first step. A nil codec is core.TransferBinary.
func runMigChaos(t *testing.T, spec *dataflow.ClusterSpec, workers int, strategy plan.Strategy, codec core.Codec,
	collect func(string), h *core.Handle[uint64, migChaosState, [2]uint64], onIssue func()) error {
	const epochs, perEpochPerWorker = 60, 32
	var mesh *dataflow.Mesh
	if spec != nil {
		var err error
		mesh, err = dataflow.JoinMesh(*spec)
		if err != nil {
			return err
		}
	}
	exec := dataflow.NewExecution(dataflow.Config{Workers: workers, Mesh: mesh})
	var dataIns []*dataflow.InputHandle[uint64]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	first := 0
	if spec != nil {
		first = spec.Process * workers
	}
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, data := dataflow.NewInput[uint64](w, "data")
		dataIns = append(dataIns, in)
		p := buildMigChaos(w, ctlStream, data, h, collect, codec)
		if w.Index() == first {
			probe = p
		}
	})
	// Preload worker 1's bins in whichever process hosts worker 1.
	if spec == nil || spec.Process == 1 {
		preloadMigChaos(h)
	}
	exec.Start()

	ctl := plan.NewController(ctlIns, probe)
	if onIssue != nil {
		ctl.OnStepIssued = func(step int, _ core.Time) {
			if step == 0 {
				onIssue()
			}
		}
	}
	mig := plan.Build(strategy, plan.Initial(8, 2), plan.Rebalance(8, []int{0}), 1)

	// Each global worker injects its residue class of a deterministic key
	// stream, exactly as in the cluster equivalence tests.
	for e := core.Time(1); e <= epochs; e++ {
		for li, in := range dataIns {
			g := uint64(first + li)
			batch := make([]uint64, perEpochPerWorker)
			for i := range batch {
				batch[i] = core.Mix64(uint64(e)*1000+g*100+uint64(i)) % 4096
			}
			in.SendBatchAt(e, batch)
		}
		if e == 20 {
			ctl.Start(mig)
		}
		ctl.Tick(e)
		for _, in := range dataIns {
			in.AdvanceTo(e + 1)
		}
	}
	for e := core.Time(epochs + 1); !ctl.Idle(); e++ {
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
	return exec.Err()
}

func TestMigrationSurvivesConnLoss(t *testing.T) {
	testMigrationSurvivesConnLoss(t, nil)
}

// TestMigrationSurvivesConnLossBatched is the same chaos scenario under
// aggressively batched framing: a tiny mesh coalescing threshold makes
// every scheduling ship many small multi-record data frames, which the
// transport then packs into kindBatch frames — so the cut lands inside a
// coalesced multi-record frame, and the replay must deduplicate at sub-frame
// granularity.
func TestMigrationSurvivesConnLossBatched(t *testing.T) {
	testMigrationSurvivesConnLoss(t, func(s *dataflow.ClusterSpec) {
		s.CoalesceBytes = 512
	})
}

func testMigrationSurvivesConnLoss(t *testing.T, tweak func(*dataflow.ClusterSpec)) {
	// Single-process reference.
	var refMu sync.Mutex
	ref := make(map[string]int)
	refHandle := &core.Handle[uint64, migChaosState, [2]uint64]{}
	if err := runMigChaos(t, nil, 2, plan.Batched, nil, func(s string) {
		refMu.Lock()
		ref[s]++
		refMu.Unlock()
	}, refHandle, nil); err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference run produced no output")
	}

	// Cluster: the TCP session (process 1 dials process 0) runs through the
	// proxy; hosts lists the proxy as process 0's address while process 0
	// actually listens on a pre-bound backend listener.
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := startChaosProxy(t, backend.Addr().String())
	defer proxy.close()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []string{proxy.addr(), ln1.Addr().String()}
	specs := []dataflow.ClusterSpec{
		{Hosts: hosts, Process: 0, Listener: backend, DialTimeout: 15 * time.Second},
		{Hosts: hosts, Process: 1, Listener: ln1, DialTimeout: 15 * time.Second},
	}
	if tweak != nil {
		for i := range specs {
			tweak(&specs[i])
		}
	}

	var cluMu sync.Mutex
	clu := make(map[string]int)
	collect := func(s string) {
		cluMu.Lock()
		clu[s]++
		cluMu.Unlock()
	}
	var installMu sync.Mutex
	installs := make(map[int]int)
	handles := [2]*core.Handle[uint64, migChaosState, [2]uint64]{{}, {}}
	handles[0].OnInstall = func(_ core.Time, bin, worker int) {
		installMu.Lock()
		installs[bin]++
		installMu.Unlock()
	}

	var wg sync.WaitGroup
	errs := [2]error{}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var onIssue func()
			if p == 1 {
				// Once the migration is underway, sever the session a few
				// KB later: the 4 steps ship ~50 KB of state, so the cut
				// lands inside a bin's frame and the replayed frames must
				// deduplicate.
				onIssue = func() { proxy.armAfter(4 << 10) }
			}
			errs[p] = runMigChaos(t, &specs[p], 1, plan.Batched, nil, collect, handles[p], onIssue)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}

	select {
	case <-proxy.severed:
	default:
		t.Fatal("the proxy was never severed: the test did not exercise a connection loss")
	}

	// Exactly-once install per moved bin, despite the replay.
	installMu.Lock()
	defer installMu.Unlock()
	for bin := 1; bin < 8; bin += 2 {
		if installs[bin] != 1 {
			t.Errorf("bin %d installed %d times on worker 0, want exactly 1", bin, installs[bin])
		}
	}
	for bin, n := range installs {
		if bin%2 == 0 && n != 0 {
			t.Errorf("bin %d was never moved but installed %d times", bin, n)
		}
	}

	if len(clu) != len(ref) {
		t.Fatalf("cluster emitted %d distinct outputs, reference %d", len(clu), len(ref))
	}
	for k, v := range ref {
		if clu[k] != v {
			t.Fatalf("output %q: cluster %d, reference %d", k, clu[k], v)
		}
	}
}

// frameBound is the MaxFrame of TestMigrationFrameBound's meshes: above one
// migrating bin's record, below the state its one step moves to worker 0.
const frameBound = 32 << 10

// TestMigrationFrameBound moves worker 1's four preloaded bins to worker 0
// of another process in one all-at-once step, on meshes whose MaxFrame
// holds any one of the bins but not all four. Every bin is a wire record of
// its own, so the move respects the bound, and the output equals an
// unmigrated run's. A transport killed by an oversized frame leaves its peer
// waiting, so the cluster runs under a watchdog: the test fails in bounded
// time instead of hanging.
func TestMigrationFrameBound(t *testing.T) {
	var ref collector
	if err := runMigChaos(t, nil, 2, plan.AllAtOnce, nil, ref.add, &core.Handle[uint64, migChaosState, [2]uint64]{}, nil); err != nil {
		t.Fatal(err)
	}
	if len(ref.lines) == 0 {
		t.Fatal("reference run produced no output")
	}

	specs := localClusterSpecs(t, 2)
	for i := range specs {
		specs[i].MaxFrame = frameBound
	}
	codec := &tagCount{Codec: core.TransferBinary}
	var clu collector
	errs := [2]error{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := range specs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = runMigChaos(t, &specs[p], 1, plan.AllAtOnce, codec, clu.add, &core.Handle[uint64, migChaosState, [2]uint64]{}, nil)
		}(p)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("the cluster did not finish within 2m: the migration likely exceeded the %d-byte frame bound", frameBound)
	}
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	bins := codec.binary.Load() + codec.gob.Load()
	codec.mu.Lock()
	largest, total := codec.largest, codec.total
	codec.mu.Unlock()
	if bins != 4 || largest >= frameBound || total <= frameBound {
		t.Fatalf("the move encoded %d bins, largest %d bytes, %d in all: want 4, each under and together over the %d-byte bound",
			bins, largest, total, frameBound)
	}
	t.Logf("one step moved %d bins of %d bytes in all, the largest %d, under a %d-byte frame bound", bins, total, largest, frameBound)
	if got, want := clu.canonical(), ref.canonical(); got != want {
		t.Fatalf("migrated cluster output differs from the unmigrated run (cluster %d lines, reference %d)",
			len(clu.lines), len(ref.lines))
	}
}
