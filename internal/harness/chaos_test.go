package harness_test

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/plan"
)

// The kill-and-recover acceptance test: a real 3-OS-process cluster (this
// test binary re-execs itself as the workers), one process SIGKILLed
// mid-stream, the survivors reaped, and the whole cluster restarted with
// -recover. The merged output must match an uninterrupted run — the same
// check scripts/cluster.sh's recovery mode performs against the real
// binaries in CI.

const (
	chaosRoleEnv    = "MEGAPHONE_CHAOS_ROLE"
	chaosHostsEnv   = "MEGAPHONE_CHAOS_HOSTS"
	chaosProcEnv    = "MEGAPHONE_CHAOS_PROCESS"
	chaosDirEnv     = "MEGAPHONE_CHAOS_DIR"
	chaosDumpEnv    = "MEGAPHONE_CHAOS_DUMP"
	chaosRecoverEnv = "MEGAPHONE_CHAOS_RECOVER"
	chaosGenEnv     = "MEGAPHONE_CHAOS_GENERATION"
	chaosAutoEnv    = "MEGAPHONE_CHAOS_AUTO"
)

func TestMain(m *testing.M) {
	switch os.Getenv(chaosRoleEnv) {
	case "keycount":
		chaosWorkerMain()
		return
	case "vanish":
		vanishWorkerMain()
		return
	}
	os.Exit(m.Run())
}

// chaosRunConfig is the one keycount configuration every phase of the
// scenario shares: the cluster processes (1 worker each), the recovery
// processes, and the in-process reference (Workers overridden to the
// cluster's total). A migration lands before the first checkpoint so the
// recovered assignment differs from the initial one.
func chaosRunConfig() keycount.RunConfig {
	return keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 11,
			Preload: true,
		},
		Config: harness.Config{
			Workers:         1,
			Rate:            20000,
			Duration:        2400 * time.Millisecond,
			EpochEvery:      time.Millisecond,
			Strategy:        plan.Batched,
			Batch:           4,
			MigrateAt:       500 * time.Millisecond,
			CheckpointEvery: 300 * time.Millisecond,
		},
	}
}

// chaosWorkerMain is one cluster process, configured by environment.
func chaosWorkerMain() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	proc, err := strconv.Atoi(os.Getenv(chaosProcEnv))
	if err != nil {
		fail(err)
	}
	gen, _ := strconv.ParseUint(os.Getenv(chaosGenEnv), 10, 64)
	cfg := chaosRunConfig()
	cfg.Cluster = &dataflow.ClusterSpec{
		Hosts:       strings.Split(os.Getenv(chaosHostsEnv), ","),
		Process:     proc,
		DialTimeout: 15 * time.Second,
		Generation:  gen,
	}
	cfg.CheckpointDir = os.Getenv(chaosDirEnv)
	cfg.Recover = os.Getenv(chaosRecoverEnv) == "1"
	if os.Getenv(chaosAutoEnv) == "1" {
		// Adaptive mode for the leader-failover scenario: no scripted
		// migrations or checkpoints, an AutoController per process, and the
		// control-plane lifecycle logged so the supervisor can observe the
		// election from outside.
		cfg.CheckpointDir = ""
		cfg.CheckpointEvery = 0
		cfg.Auto = &plan.AutoOptions{
			Policy:      plan.LoadBalance{Hysteresis: 0.25},
			Strategy:    plan.Optimized,
			Batch:       4,
			SampleEvery: 100,
			Cooldown:    200,
		}
		cfg.Workload = harness.Workload{
			Kind:        harness.HotShift,
			HotFraction: 0.85,
			HotKeys:     16,
			HotStride:   uint64(1 << 11 >> 4 * 2),
			ShiftEvery:  600,
		}
		cfg.Duration = 10 * time.Second
		cfg.Cluster.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	sink, finish, err := harness.LineSink(os.Getenv(chaosDumpEnv))
	if err != nil {
		fail(err)
	}
	cfg.Sink = sink
	res, err := keycount.Run(cfg)
	if err != nil {
		fail(err)
	}
	if err := finish(); err != nil {
		fail(err)
	}
	if res.RestoreEpoch > 0 {
		fmt.Printf("# recovered from checkpoint epoch %d (load %.3fs)\n", res.RestoreEpoch, res.RestoreSeconds)
	}
	fmt.Printf("# records=%d checkpoints=%d\n", res.Records, len(res.Checkpoints))
	os.Exit(0)
}

// freeHosts binds and releases n loopback ports. The tiny bind race is the
// same one scripts/freeports.go accepts for the shell gauntlet.
func freeHosts(t *testing.T, n int) []string {
	t.Helper()
	hosts := make([]string, n)
	for i := range hosts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = ln.Addr().String()
		ln.Close()
	}
	return hosts
}

// maxCountsOf folds "key:count" dump files into per-key maxima — the final
// count per key, since keycount's counts only grow and recovery re-emits
// every epoch from the checkpoint on (see keycount's recovery test for the
// argument in full).
func maxCountsOf(t *testing.T, paths ...string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("dump %s: %v", p, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			i := strings.IndexByte(line, ':')
			if i < 0 {
				continue
			}
			n, err := strconv.ParseUint(line[i+1:], 10, 64)
			if err != nil {
				continue
			}
			if n > out[line[:i]] {
				out[line[:i]] = n
			}
		}
		// A SIGKILLed process leaves a torn buffered tail; scanner errors on
		// it are expected and the lost lines are re-covered by recovery.
		f.Close()
	}
	return out
}

func TestClusterKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and runs ~8s")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const procs = 3
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")

	// Uninterrupted reference, in-process, same total worker count.
	var mu sync.Mutex
	ref := make(map[string]uint64)
	refCfg := chaosRunConfig()
	refCfg.Workers = procs
	refCfg.CheckpointEvery = 0
	refCfg.Sink = func(line string) {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			return
		}
		n, _ := strconv.ParseUint(line[i+1:], 10, 64)
		mu.Lock()
		if n > ref[line[:i]] {
			ref[line[:i]] = n
		}
		mu.Unlock()
	}
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 || len(refRes.MigrationSpans) == 0 {
		t.Fatalf("reference degenerate: %d records, %d migrations", refRes.Records, len(refRes.MigrationSpans))
	}

	hosts := freeHosts(t, procs)
	spawn := func(phase string, generation int) *harness.Chaos {
		c := &harness.Chaos{}
		for p := 0; p < procs; p++ {
			c.Procs = append(c.Procs, harness.ChaosProc{
				Name: fmt.Sprintf("%s-proc%d", phase, p),
				Path: exe,
				Args: []string{"-test.run", "xxx"}, // the role env short-circuits TestMain before flags matter
				Env: []string{
					chaosRoleEnv + "=keycount",
					chaosHostsEnv + "=" + strings.Join(hosts, ","),
					chaosProcEnv + "=" + strconv.Itoa(p),
					chaosDirEnv + "=" + ckptDir,
					chaosDumpEnv + "=" + filepath.Join(dir, fmt.Sprintf("dump-%s-%d", phase, p)),
					chaosRecoverEnv + "=" + map[string]string{"phase1": "0", "phase2": "1"}[phase],
					chaosGenEnv + "=" + strconv.Itoa(generation),
				},
				Log: filepath.Join(dir, fmt.Sprintf("log-%s-%d", phase, p)),
			})
		}
		if err := c.StartAll(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Phase 1: run, then SIGKILL process 1 mid-stream and reap the rest
	// (their in-memory state dies with them; only the checkpoints survive).
	phase1 := spawn("phase1", 1)
	time.Sleep(1300 * time.Millisecond)
	if err := phase1.Kill(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	phase1.KillAll()
	phase1.WaitAll(20 * time.Second) // exit errors are the point here

	epoch, _, ok, err := core.LatestCheckpoint(ckptDir, procs)
	if err != nil || !ok {
		t.Fatalf("no complete checkpoint on disk after the kill (ok=%v err=%v)", ok, err)
	}
	if epoch < 300 {
		t.Fatalf("latest checkpoint epoch %d, want >= 300", epoch)
	}

	// Phase 2: restart the whole cluster in recovery mode.
	phase2 := spawn("phase2", 2)
	for p, st := range phase2.WaitAll(60 * time.Second) {
		if st.Err != nil {
			log, _ := os.ReadFile(filepath.Join(dir, fmt.Sprintf("log-phase2-%d", p)))
			t.Fatalf("recovery process %d failed (killed=%v): %v\n%s", p, st.Killed, st.Err, log)
		}
	}
	for p := 0; p < procs; p++ {
		log, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("log-phase2-%d", p)))
		if err != nil || !strings.Contains(string(log), "# recovered from checkpoint epoch") {
			t.Fatalf("recovery process %d did not report restoring a checkpoint:\n%s", p, log)
		}
	}

	// Merged phase-1 + phase-2 output must equal the uninterrupted run.
	var dumps []string
	for _, phase := range []string{"phase1", "phase2"} {
		for p := 0; p < procs; p++ {
			path := filepath.Join(dir, fmt.Sprintf("dump-%s-%d", phase, p))
			if _, err := os.Stat(path); err == nil {
				dumps = append(dumps, path)
			}
		}
	}
	got := maxCountsOf(t, dumps...)
	bad := 0
	for k, v := range ref {
		if got[k] != v {
			if bad < 5 {
				t.Errorf("key %s: final count %d, want %d", k, got[k], v)
			}
			bad++
		}
	}
	for k := range got {
		if _, okk := ref[k]; !okk {
			if bad < 5 {
				t.Errorf("key %s: emitted only by the recovered cluster", k)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d keys diverge between the killed-and-recovered cluster and the uninterrupted run (recovered from epoch %d)", bad, epoch)
	}
}

// TestClusterLeaderFailover kills the elected cluster controller (process 0,
// the lowest index) in a real 3-OS-process adaptive cluster and asserts the
// control plane's succession protocol from outside: process 1 — and only
// process 1 — announces taking over, after the heartbeat suspicion window.
// The in-process variant (plan's TestClusterControllerElectionFailover)
// additionally pins the no-conflicting-plan guarantees; this one pins that
// the whole stack — mesh control channel, telemetry heartbeats, election —
// behaves the same over real sockets between real processes.
func TestClusterLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and runs ~5s")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const procs = 3
	dir := t.TempDir()
	hosts := freeHosts(t, procs)
	takeoverMsg := "assumed cluster-controller leadership"

	c := &harness.Chaos{}
	logPath := func(p int) string { return filepath.Join(dir, fmt.Sprintf("log-auto-%d", p)) }
	for p := 0; p < procs; p++ {
		c.Procs = append(c.Procs, harness.ChaosProc{
			Name: fmt.Sprintf("auto-proc%d", p),
			Path: exe,
			Args: []string{"-test.run", "xxx"}, // the role env short-circuits TestMain before flags matter
			Env: []string{
				chaosRoleEnv + "=keycount",
				chaosHostsEnv + "=" + strings.Join(hosts, ","),
				chaosProcEnv + "=" + strconv.Itoa(p),
				chaosDumpEnv + "=" + filepath.Join(dir, fmt.Sprintf("dump-auto-%d", p)),
				chaosAutoEnv + "=1",
				chaosGenEnv + "=1",
			},
			Log: logPath(p),
		})
	}
	if err := c.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer c.KillAll()

	// Let the cluster mesh up and process 0 lead for a while, then kill it
	// the way machines die.
	time.Sleep(1200 * time.Millisecond)
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}

	// Succession is announced within roughly SuspectAfter sampling windows
	// (4 x 100ms here); poll generously, then stop the survivors before the
	// transport's redial deadline turns the stalled dataflow into a panic.
	deadline := time.Now().Add(20 * time.Second)
	var took bool
	for time.Now().Before(deadline) {
		log1, _ := os.ReadFile(logPath(1))
		if strings.Contains(string(log1), takeoverMsg) {
			took = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	c.KillAll()
	c.WaitAll(20 * time.Second) // exit errors are the point: everyone was killed

	log1, _ := os.ReadFile(logPath(1))
	log2, _ := os.ReadFile(logPath(2))
	if !took {
		t.Fatalf("process 1 never announced taking over after the leader died\nproc1 log:\n%s\nproc2 log:\n%s", log1, log2)
	}
	if !strings.Contains(string(log1), "cluster controller is now process 1") {
		t.Errorf("process 1 did not log the controller change:\n%s", log1)
	}
	// Process 1 kept heartbeating throughout, so process 2 must never have
	// considered itself the controller — no second, conflicting driver.
	if strings.Contains(string(log2), takeoverMsg) {
		t.Errorf("process 2 also assumed leadership — two concurrent controllers:\n%s", log2)
	}
	if strings.Contains(string(log2), "cluster controller is now process 2") {
		t.Errorf("process 2 believed itself the controller:\n%s", log2)
	}
}
