package harness_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/leakcheck"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

// TestPaperTargetsFixedRoster: over every worker of a fixed roster, the
// Section 5 schedule's two targets are the imbalanced assignment onto the
// first half of the workers and the initial round-robin one — the plans
// the workload runners built before the schedule was one function of the
// live worker list.
func TestPaperTargetsFixedRoster(t *testing.T) {
	for n := 1; n <= 8; n++ {
		all := make([]int, n)
		var firstHalf []int
		for i := range all {
			all[i] = i
			if i < (n+1)/2 {
				firstHalf = append(firstHalf, i)
			}
		}
		for logBins := 4; logBins <= 8; logBins++ {
			bins := 1 << logBins
			got := harness.PaperTargets(bins, all)
			if want := plan.Rebalance(bins, firstHalf); !reflect.DeepEqual(got[0], want) {
				t.Errorf("n=%d bins=%d: first target %v, want %v", n, bins, got[0], want)
			}
			if want := plan.Initial(bins, n); !reflect.DeepEqual(got[1], want) {
				t.Errorf("n=%d bins=%d: second target %v, want %v", n, bins, got[1], want)
			}
		}
	}
}

// vanishWorkloadEnv names the workload a vanishing peer runs, or
// "join-only" for a peer that joins the mesh and goes no further;
// vanishCheckpointEnv is the checkpoint directory of a membership run.
const (
	vanishWorkloadEnv   = "MEGAPHONE_VANISH_WORKLOAD"
	vanishCheckpointEnv = "MEGAPHONE_VANISH_CHECKPOINTS"
)

// vanishRun runs one of the workloads the peer-loss test drives: small,
// unmigrated, identical on both processes apart from the cluster spec, the
// duration and out, which is called on every output batch (a sink is part
// of the dataflow, so both processes attach one). keycount-membership is
// keycount under dynamic membership, checkpointing into ckptDir.
func vanishRun(workload string, spec *dataflow.ClusterSpec, duration time.Duration, ckptDir string, out func()) (harness.Result, error) {
	cfg := harness.Config{Workers: 1, Rate: 2000, Duration: duration, Cluster: spec}
	switch workload {
	case "keycount", "keycount-membership":
		rc := keycount.RunConfig{
			Params: keycount.Params{Variant: keycount.HashCount, LogBins: 4, Domain: 1 << 10},
			Config: cfg,
			Sink:   func(string) { out() },
		}
		if workload == "keycount-membership" {
			rc.Membership, rc.CheckpointDir = true, ckptDir
		}
		return keycount.Run(rc)
	case "nexmark":
		return nexmark.Run(nexmark.RunConfig{
			Query:  "q3",
			Params: nexmark.Params{Impl: nexmark.Megaphone, LogBins: 4, Sink: func(nexmark.Time, []string) { out() }},
			Config: cfg,
		})
	}
	return harness.Result{}, fmt.Errorf("unknown workload %q", workload)
}

// vanishWorkerMain is the peer that vanishes: process 0 of a two-process
// run that lasts far longer than the test lets it live. As "join-only" it
// joins the mesh and never builds its dataflow, so the other process can
// never start its clock.
func vanishWorkerMain() {
	spec := dataflow.ClusterSpec{
		Hosts:       strings.Split(os.Getenv(chaosHostsEnv), ","),
		DialTimeout: 10 * time.Second,
	}
	var err error
	if workload := os.Getenv(vanishWorkloadEnv); workload == "join-only" {
		if _, err = dataflow.JoinMesh(spec); err == nil {
			select {}
		}
	} else {
		_, err = vanishRun(workload, &spec, 30*time.Second, os.Getenv(vanishCheckpointEnv), func() {})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestRunPeerVanishes: a two-process run whose peer is SIGKILLed returns
// the transport's fatal error, for either workload, instead of wedging or
// reporting success — whether the peer dies mid-run (after this process's
// first output) or before the clock starts (a peer that joined the mesh
// and never built its dataflow holds the start alignment until it dies).
// The surviving process dials (it has the higher index), so it gives up
// once its short dial timeout passes. The 30 s row pins that the run then
// stops injecting instead of running out its duration: it must return
// within the dial timeout and a few seconds of the kill, and so must a
// membership run, whose peer dies before any checkpoint completes: without
// one the survivor cannot declare the death, so only its transport's error
// can end the run early. The rows run in parallel, each on its own hosts
// with its own peer, since most of a row is waiting out a dial timeout.
func TestRunPeerVanishes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const short = 1500 * time.Millisecond
	for _, row := range []struct {
		name, workload string
		beforeStart    bool
		duration       time.Duration
	}{
		{"keycount", "keycount", false, short},
		{"nexmark", "nexmark", false, short},
		{"keycount/before-start", "keycount", true, short},
		{"nexmark/before-start", "nexmark", true, short},
		{"keycount/before-start-30s", "keycount", true, 30 * time.Second},
		{"keycount/membership-30s", "keycount-membership", false, 30 * time.Second},
	} {
		peer := row.workload
		if row.beforeStart {
			peer = "join-only"
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			hosts, ckptDir := freeHosts(t, 2), t.TempDir()
			c := &harness.Chaos{Procs: []harness.ChaosProc{{
				Name: "vanishing-" + peer,
				Path: exe,
				Args: []string{"-test.run", "xxx"},
				Env: []string{
					chaosRoleEnv + "=vanish",
					chaosHostsEnv + "=" + strings.Join(hosts, ","),
					vanishWorkloadEnv + "=" + peer,
					vanishCheckpointEnv + "=" + ckptDir,
				},
				Log: filepath.Join(t.TempDir(), "log"),
			}}}
			if err := c.StartAll(); err != nil {
				t.Fatal(err)
			}
			defer c.KillAll()
			connected, started := make(chan struct{}), make(chan struct{})
			var connectedOnce, startedOnce sync.Once
			spec := &dataflow.ClusterSpec{
				Hosts:       hosts,
				Process:     1,
				DialTimeout: 2 * time.Second,
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "connected to") {
						connectedOnce.Do(func() { close(connected) })
					}
				},
			}
			type outcome struct {
				res harness.Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := vanishRun(row.workload, spec, row.duration, ckptDir, func() {
					startedOnce.Do(func() { close(started) })
				})
				done <- outcome{res, err}
			}()
			wait := connected
			if !row.beforeStart {
				wait = started
			}
			select {
			case <-wait:
			case o := <-done:
				t.Fatalf("run ended before its peer vanished: %v", o.err)
			case <-time.After(20 * time.Second):
				t.Fatal("the run never got going")
			}
			if err := c.Kill(0); err != nil {
				t.Fatal(err)
			}
			killed := time.Now()
			select {
			case o := <-done:
				if o.err == nil {
					t.Fatal("run whose peer vanished returned no error")
				}
				if took, bound := time.Since(killed), spec.DialTimeout+3*time.Second; took > bound {
					t.Fatalf("run returned %v after its peer vanished, want within %v", took, bound)
				}
				if n := o.res.Hist.Count(); row.beforeStart && n != 0 {
					t.Fatalf("%d epochs completed without the peer", n)
				}
				t.Logf("error as expected: %v", o.err)
			case <-time.After(40 * time.Second):
				t.Fatal("run whose peer vanished did not return")
			}
		})
	}
}

// TestJoinerNeverAdmitted: a joiner whose admission never comes — its only
// member joined the mesh and never built a dataflow — returns an error and
// leaves nothing of the execution it had started running: no worker, no
// transport goroutine. While the member lives, the error is the admission's,
// returned once the run's Duration has passed, not at the 60 s barrier
// timeout; the member stays up until the check is done (its death would end
// the joiner's transport too, and hide a leak). When the member is killed
// while the joiner waits, the joiner returns the transport's error within
// the dial timeout of the kill, not at the end of its 30 s run. The member
// is started without a Chaos supervisor, whose waiter goroutine the check
// would count.
func TestJoinerNeverAdmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name     string
		duration time.Duration
		kill     bool // kill the member once the joiner has connected to it
		want     string
		within   time.Duration // from the start, or from the kill
	}{
		{"member-stays-1s", time.Second, false, "no admission decision", 20 * time.Second},
		{"member-killed-30s", 30 * time.Second, true, "halted awaiting admission", 10 * time.Second},
	} {
		t.Run(row.name, func(t *testing.T) {
			hosts, ckptDir := freeHosts(t, 2), t.TempDir()
			member := exec.Command(exe, "-test.run", "xxx")
			member.Env = append(os.Environ(),
				chaosRoleEnv+"=vanish",
				chaosHostsEnv+"="+strings.Join(hosts, ","),
				vanishWorkloadEnv+"=join-only")
			if err := member.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				member.Process.Kill()
				member.Wait()
			}()
			connected := make(chan struct{})
			var connectedOnce sync.Once
			spec := &dataflow.ClusterSpec{
				Hosts:       hosts,
				Process:     1,
				Absent:      []bool{false, true}, // this process joins later
				DialTimeout: 2 * time.Second,
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "connected to") {
						connectedOnce.Do(func() { close(connected) })
					}
				},
			}
			done := make(chan error, 1)
			began := time.Now()
			go func() {
				_, err := keycount.Run(keycount.RunConfig{
					Params: keycount.Params{Variant: keycount.HashCount, LogBins: 4, Domain: 1 << 10},
					Config: harness.Config{Workers: 1, Rate: 2000, Duration: row.duration, Cluster: spec, CheckpointDir: ckptDir},
					Extras: harness.Extras{Membership: true},
				})
				done <- err
			}()
			if row.kill {
				select {
				case <-connected:
				case err := <-done:
					t.Fatalf("joiner returned before its member was killed: %v", err)
				case <-time.After(20 * time.Second):
					t.Fatal("the joiner never connected")
				}
				time.Sleep(200 * time.Millisecond) // into AwaitAdmission
				member.Process.Kill()
				began = time.Now()
			}
			var err error
			select {
			case err = <-done:
			case <-time.After(row.duration + 40*time.Second):
				t.Fatal("the joiner did not return")
			}
			took := time.Since(began)
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("joiner that was never admitted returned %v, want an error containing %q", err, row.want)
			}
			t.Logf("error as expected after %v: %v", took.Round(time.Millisecond), err)
			if took > row.within {
				t.Errorf("the joiner returned %v after it began waiting (or its member was killed), want within %v", took, row.within)
			}
			if err := leakcheck.Check(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunRejects: every configuration a workload refuses is refused before
// the process joins its mesh. Each row names a peer that never starts, so a
// refusal that came after the join would wait out the dial timeout instead
// of returning at once.
func TestRunRejects(t *testing.T) {
	// A keycount checkpoint for a two-worker execution: nexmark refuses to
	// recover from it, since it holds none of nexmark's operators.
	foreign := t.TempDir()
	if _, err := keycount.Run(keycount.RunConfig{
		Params: keycount.Params{Variant: keycount.HashCount, LogBins: 4, Domain: 1 << 10},
		Config: harness.Config{
			Workers: 2, Rate: 2000, Duration: 120 * time.Millisecond,
			CheckpointDir: foreign, CheckpointEvery: 40 * time.Millisecond,
		},
	}); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	kc := func(edit func(*keycount.RunConfig)) func(*dataflow.ClusterSpec) error {
		return func(spec *dataflow.ClusterSpec) error {
			cfg := keycount.RunConfig{
				Params: keycount.Params{Variant: keycount.HashCount, LogBins: 4, Domain: 1 << 10},
				Config: harness.Config{Workers: 1, Rate: 2000, Duration: time.Second, Cluster: spec},
			}
			edit(&cfg)
			_, err := keycount.Run(cfg)
			return err
		}
	}
	nx := func(edit func(*nexmark.RunConfig)) func(*dataflow.ClusterSpec) error {
		return func(spec *dataflow.ClusterSpec) error {
			cfg := nexmark.RunConfig{
				Query:  "q3",
				Params: nexmark.Params{Impl: nexmark.Megaphone, LogBins: 4},
				Config: harness.Config{Workers: 1, Rate: 2000, Duration: time.Second, Cluster: spec},
			}
			edit(&cfg)
			_, err := nexmark.Run(cfg)
			return err
		}
	}
	absent := func(spec *dataflow.ClusterSpec) { spec.Absent = []bool{false, true} }
	for _, row := range []struct {
		name string
		run  func(*dataflow.ClusterSpec) error
		want string
	}{
		{"keycount/bins", kc(func(c *keycount.RunConfig) { c.LogBins = 0 }), "log2 bin count"},
		{"keycount/domain", kc(func(c *keycount.RunConfig) { c.Domain = 0 }), "key domain"},
		{"keycount/dense-domain", kc(func(c *keycount.RunConfig) { c.Variant, c.Domain = keycount.KeyCount, 1000 }), "power-of-two"},
		{"keycount/native-checkpoint", kc(func(c *keycount.RunConfig) { c.Variant, c.CheckpointDir = keycount.NativeHash, empty }), "migrateable"},
		{"keycount/recover-without-dir", kc(func(c *keycount.RunConfig) { c.Recover = true }), "-recover needs -checkpoint-dir"},
		{"keycount/recover-empty-dir", kc(func(c *keycount.RunConfig) { c.Recover, c.CheckpointDir = true, empty }), "no complete checkpoint"},
		{"keycount/absent", kc(func(c *keycount.RunConfig) { absent(c.Cluster) }), "absent slots"},
		{"keycount/membership-recover", kc(func(c *keycount.RunConfig) { c.Membership, c.Recover, c.CheckpointDir = true, true, empty }), "cannot be combined"},
		{"keycount/membership-no-dir", kc(func(c *keycount.RunConfig) { c.Membership = true }), "-checkpoint-dir"},
		{"keycount/membership-auto", kc(func(c *keycount.RunConfig) {
			c.Membership, c.CheckpointDir, c.Auto = true, empty, &plan.AutoOptions{Policy: plan.Static{}}
		}), "load thresholds"},
		{"keycount/membership-native", kc(func(c *keycount.RunConfig) {
			c.Variant, c.Membership, c.CheckpointDir = keycount.NativeKey, true, empty
		}), "migrateable"},
		{"nexmark/bins", nx(func(c *nexmark.RunConfig) { c.Params.LogBins = 40 }), "log2 bin count"},
		{"nexmark/query", nx(func(c *nexmark.RunConfig) { c.Query = "q9" }), "unknown query"},
		{"nexmark/impl", nx(func(c *nexmark.RunConfig) { c.Params.Impl = 7 }), "unknown implementation"},
		{"nexmark/native-checkpoint", nx(func(c *nexmark.RunConfig) { c.Params.Impl, c.CheckpointDir = nexmark.Native, empty }), "migrateable"},
		{"nexmark/recover-without-dir", nx(func(c *nexmark.RunConfig) { c.Recover = true }), "-recover needs -checkpoint-dir"},
		{"nexmark/recover-foreign", nx(func(c *nexmark.RunConfig) { c.Recover, c.CheckpointDir = true, foreign }), "holds no state for operator"},
		{"nexmark/absent", nx(func(c *nexmark.RunConfig) { absent(c.Cluster) }), "absent slots"},
	} {
		t.Run(row.name, func(t *testing.T) {
			const dialTimeout = 10 * time.Second
			spec := &dataflow.ClusterSpec{Hosts: freeHosts(t, 2), DialTimeout: dialTimeout}
			start := time.Now()
			err := row.run(spec)
			if took := time.Since(start); took > dialTimeout/2 {
				t.Errorf("refusal took %v: the process joined its mesh first", took)
			}
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, row.want)
			}
		})
	}
}
