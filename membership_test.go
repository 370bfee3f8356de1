// Dynamic-membership equivalence: the acceptance test of join, drain-leave
// and crash-leave on a live cluster. A 4-slot roster starts with slot 3
// absent; under continuous load the cluster admits the late joiner, survives
// an abrupt crash of process 2 (recovering only its bins from the latest
// complete checkpoint and replaying the bounded input window), and drains
// process 1 out cleanly — all without restarting the cluster. The merged
// output must be equivalent to an uninterrupted single-process run with the
// same total worker count. scripts/cluster.sh join-leave performs the same
// scenario against the real binaries with a real SIGKILL.
package megaphone_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/plan"
)

// maxCounts folds "key:count" output lines into the final (maximum) count
// per key. Counts only grow, and crash recovery re-emits every epoch from
// the checkpoint on, so at-least-once duplication is expected across a
// crash: the per-key maximum is the deterministic quantity, equal to the
// key's total number of occurrences in the input stream.
func maxCounts(t *testing.T, lines []string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range lines {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			t.Fatalf("malformed output line %q", line)
		}
		n, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("malformed output line %q: %v", line, err)
		}
		if n > out[line[:i]] {
			out[line[:i]] = n
		}
	}
	return out
}

func TestMembershipJoinCrashDrainEquivalence(t *testing.T) {
	const (
		procs = 4
		wpp   = 1
		// Epoch timeline: slot 3 joins at startup (committed within the
		// first ~20 epochs), checkpoints land every 200 epochs, process 2
		// crashes at 450 (recovering from the complete full-roster
		// checkpoint at 400), process 1 drain-leaves at 700, and the two
		// survivors run out the remaining epochs.
		durationEpochs  = 1000
		checkpointEvery = 200 * time.Millisecond
		crashAt         = 450
		leaveAt         = 700
	)
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 10,
			Preload: false,
		},
		Config: harness.Config{
			Rate:       20000,
			Duration:   durationEpochs * time.Millisecond,
			EpochEvery: time.Millisecond,
		},
	}

	// Uninterrupted single-process reference with the same total worker
	// count: the membership run's merged output must match its final count
	// for every key.
	var ref collector
	refCfg := base
	refCfg.Workers = procs * wpp
	refCfg.Sink = ref.add
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 {
		t.Fatal("reference run injected no records")
	}

	specs := localClusterSpecs(t, procs)
	absent := make([]bool, procs)
	absent[procs-1] = true
	ckptDir := t.TempDir()

	var logs logCapture
	var clu collector
	var wg sync.WaitGroup
	errs := make([]error, procs)
	epochs := make([]int64, procs)
	results := make([]harness.Result, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = wpp
			cfg.Cluster = &specs[p]
			cfg.Cluster.Absent = absent
			cfg.Cluster.Logf = logs.logf(t, p)
			cfg.Sink = clu.add
			cfg.Membership = true
			cfg.CheckpointDir = ckptDir
			cfg.CheckpointEvery = checkpointEvery
			// Four race-instrumented runtimes sharing however few cores the
			// test machine has: widen the suspicion/death/margin windows so
			// scheduling jitter cannot fake a crash or outrun a commit.
			cfg.MembershipSlack = 6
			switch p {
			case 1:
				cfg.LeaveAt = leaveAt
			case 2:
				cfg.CrashAt = crashAt
			}
			res, err := keycount.Run(cfg)
			errs[p] = err
			epochs[p] = res.Epochs
			results[p] = res
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}

	// The crashed process abandoned mid-run — at its crash epoch, or later
	// if the first full-roster checkpoint was still completing; the drained
	// process broke out shortly after its leave commit; the survivors
	// (including the joiner) ran the full range.
	if epochs[2] == durationEpochs {
		t.Fatalf("crash victim drove the full %d epochs without abandoning", durationEpochs)
	}
	if epochs[1] < leaveAt || epochs[1] == durationEpochs {
		t.Fatalf("leaver drove epoch %d, want departure in (%d, %d)", epochs[1], leaveAt, durationEpochs)
	}
	for _, p := range []int{0, procs - 1} {
		if epochs[p] != durationEpochs {
			t.Fatalf("survivor %d stopped at epoch %d, want %d", p, epochs[p], durationEpochs)
		}
	}
	checkLatency(t, results, map[int]int64{0: 1, procs - 1: logs.joinEpoch(t, procs-1)}, durationEpochs)

	// Output equivalence under at-least-once replay: final count per key.
	want := maxCounts(t, ref.lines)
	got := maxCounts(t, clu.lines)
	var low, high int
	binsOff := map[int]int{}
	for k, w := range want {
		g := got[k]
		if g == w {
			continue
		}
		if g < w {
			low++
		} else {
			high++
		}
		key, _ := strconv.ParseUint(k, 10, 64)
		binsOff[core.BinOf(core.Mix64(key), 4)]++
		if low+high <= 5 {
			t.Errorf("key %s: final count %d, reference %d", k, g, w)
		}
	}
	if low+high > 0 {
		t.Fatalf("%d keys under reference, %d over (of %d distinct; mismatches per bin %v)",
			low, high, len(want), binsOff)
	}
	if len(got) != len(want) {
		t.Fatalf("membership run produced %d distinct keys, reference %d", len(got), len(want))
	}
}

// logCapture collects cluster log lines across processes for assertions on
// leader decisions (which process produced a line does not matter: every
// decision is logged by the leader that took it).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(t *testing.T, p int) func(string, ...any) {
	return func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		l.mu.Lock()
		l.lines = append(l.lines, line)
		l.mu.Unlock()
		t.Logf("proc %d: %s", p, line)
	}
}

// joinEpoch returns the epoch at which joiner p's admission barrier
// committed: its first epoch.
func (l *logCapture) joinEpoch(t *testing.T, p int) int64 {
	re := regexp.MustCompile(fmt.Sprintf(`process %d: join barrier at epoch (\d+) complete`, p))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if m := re.FindStringSubmatch(line); m != nil {
			e, _ := strconv.ParseInt(m[1], 10, 64)
			return e
		}
	}
	t.Fatalf("process %d logged no completed join barrier", p)
	return 0
}

// checkLatency: each process in first drove from its first epoch there to
// end, through the same loop as a fixed-roster run, so it measured the
// latency of every epoch it drove and reported a latency timeline.
func checkLatency(t *testing.T, results []harness.Result, first map[int]int64, end int64) {
	t.Helper()
	for p, f := range first {
		if got, want := results[p].Hist.Count(), end-f+1; got != want {
			t.Errorf("process %d measured %d epoch latencies, want %d (epochs %d..%d)", p, got, want, f, end)
		}
		if len(results[p].Timeline.Samples()) == 0 {
			t.Errorf("process %d reported an empty latency timeline", p)
		}
	}
}

func (l *logCapture) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// TestMembershipCrashMidMigrationEquivalence is the crash-safe migration
// acceptance test: a 4-slot roster runs a scripted membership migration and
// process 3 is crashed between the migration's decision and its commit, so
// the leader must reconcile the in-flight move schedule against the death
// (fold the dead member's bins into the restore cut, redirect or drop the
// rest) instead of rejecting the overlap. Later, after the roster has shrunk
// to three, process 2 crashes too — its bins restore from a checkpoint whose
// manifests already record the shrunk roster (worker 3's manifest never
// existed, and roster-aware completeness must not wait for it). The merged
// per-key maximum count must equal an uninterrupted single-process run.
func TestMembershipCrashMidMigrationEquivalence(t *testing.T) {
	const (
		procs = 4
		wpp   = 1
		// Epoch timeline (slack 12 scales the decision margin to 96 epochs,
		// enough to absorb inter-process loop skew under the race detector):
		// checkpoints every 200 epochs; the first scripted migration is
		// decided at 300 and commits at ~396, with process 3 killed at 320 —
		// inside the decision-to-commit window, its migration moves still
		// pending when the death is declared. The second migration is pinned
		// at 450, after the kill but before the death declaration: it is
		// rendered against the full roster and ships bins into the silent
		// dead slot, whose restore the declaration barrier must fold in.
		// Both migrations are decided before any barrier can stall the
		// leader's loop (post-barrier epochs sprint to catch up with the
		// wall clock, which would void the decision margin). Process 2 is
		// killed at 1400, well clear of the first declaration, and restores
		// from a checkpoint whose manifests never included worker 3.
		durationEpochs  = 2600
		checkpointEvery = 200 * time.Millisecond
		migrateAt       = 300 * time.Millisecond
		migrateTwoAt    = 450 * time.Millisecond
		crash1At        = 320
		crash2At        = 1400
	)
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 10,
			Preload: false,
		},
		Config: harness.Config{
			Rate:       20000,
			Duration:   durationEpochs * time.Millisecond,
			EpochEvery: time.Millisecond,
		},
	}

	var ref collector
	refCfg := base
	refCfg.Workers = procs * wpp
	refCfg.Sink = ref.add
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 {
		t.Fatal("reference run injected no records")
	}

	specs := localClusterSpecs(t, procs)
	ckptDir := t.TempDir()
	var logs logCapture
	var clu collector
	var wg sync.WaitGroup
	errs := make([]error, procs)
	epochs := make([]int64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = wpp
			cfg.Cluster = &specs[p]
			cfg.Cluster.Logf = logs.logf(t, p)
			cfg.Sink = clu.add
			cfg.Membership = true
			cfg.CheckpointDir = ckptDir
			cfg.CheckpointEvery = checkpointEvery
			cfg.MembershipSlack = 12
			cfg.Strategy = plan.Batched
			cfg.Batch = 4
			cfg.MigrateAt = migrateAt
			cfg.MigrateTwo = true
			cfg.MigrateTwoAt = migrateTwoAt
			switch p {
			case 3:
				cfg.CrashAt = crash1At
			case 2:
				cfg.CrashAt = crash2At
			}
			res, err := keycount.Run(cfg)
			errs[p] = err
			epochs[p] = res.Epochs
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}

	for _, p := range []int{2, 3} {
		if epochs[p] == durationEpochs {
			t.Fatalf("crash victim %d drove the full %d epochs without abandoning", p, durationEpochs)
		}
	}
	for _, p := range []int{0, 1} {
		if epochs[p] != durationEpochs {
			t.Fatalf("survivor %d stopped at epoch %d, want %d", p, epochs[p], durationEpochs)
		}
	}
	// The scripted migration must actually have been issued through the
	// membership plane, and both deaths declared.
	if !logs.contains("issued scripted migration") {
		t.Fatal("no scripted migration was ever issued through the membership controller")
	}
	if !logs.contains("decided crash-leave of process 3") {
		t.Fatal("death of process 3 (mid-migration) never declared")
	}
	if !logs.contains("decided crash-leave of process 2") {
		t.Fatal("death of process 2 (shrunk roster) never declared")
	}

	want := maxCounts(t, ref.lines)
	got := maxCounts(t, clu.lines)
	var off int
	for k, w := range want {
		if g := got[k]; g != w {
			off++
			if off <= 5 {
				t.Errorf("key %s: final count %d, reference %d", k, g, w)
			}
		}
	}
	if off > 0 {
		t.Fatalf("%d of %d keys differ from the uninterrupted reference", off, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("membership run produced %d distinct keys, reference %d", len(got), len(want))
	}
}

// TestMembershipAutoscaleJoin closes the elasticity loop end to end: a
// 4-slot roster starts with slot 3 as a registered standby (absent, waiting
// in AwaitAdmission) and the cluster runs a hot-shift workload whose mean
// per-worker load sits above the scale-out threshold. The membership leader,
// reading the autoscaler's load windows over the multiplexed control bus,
// must admit the standby — plain hello auto-admission is disabled when the
// autoscaler drives membership — after which the joiner runs to the end and
// the merged output still matches the uninterrupted reference. Every
// process, the joiner from its commit epoch on, measures the latency of each
// epoch it drove. (Whether p99 settles after a shift is asserted by
// scripts/cluster.sh autoscale against the real binaries; here admission,
// output equivalence and latency accounting are the invariants.)
func TestMembershipAutoscaleJoin(t *testing.T) {
	const (
		procs           = 4
		wpp             = 1
		durationEpochs  = 1000
		checkpointEvery = 200 * time.Millisecond
	)
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 10,
			Preload: false,
		},
		Config: harness.Config{
			Rate:       20000,
			Duration:   durationEpochs * time.Millisecond,
			EpochEvery: time.Millisecond,
		},
		Workload: harness.Workload{
			Kind:        harness.HotShift,
			HotFraction: 0.85,
			HotKeys:     16,
			HotStride:   uint64((1 << 10) >> 4 * 2),
			ShiftEvery:  400,
		},
	}

	var ref collector
	refCfg := base
	refCfg.Workers = procs * wpp
	refCfg.Sink = ref.add
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 {
		t.Fatal("reference run injected no records")
	}

	specs := localClusterSpecs(t, procs)
	absent := make([]bool, procs)
	absent[procs-1] = true
	ckptDir := t.TempDir()
	var logs logCapture
	var clu collector
	var wg sync.WaitGroup
	errs := make([]error, procs)
	epochs := make([]int64, procs)
	results := make([]harness.Result, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = wpp
			cfg.Cluster = &specs[p]
			cfg.Cluster.Absent = absent
			cfg.Cluster.Logf = logs.logf(t, p)
			cfg.Sink = clu.add
			cfg.Membership = true
			cfg.CheckpointDir = ckptDir
			cfg.CheckpointEvery = checkpointEvery
			cfg.MembershipSlack = 6
			// Telemetry-only autoscaler: sample fast enough for the hot
			// streak to sustain well inside the run. At 20k rec/s over three
			// live workers a 50-epoch window holds ~333 recs/worker, far
			// above the threshold, so scale-out triggers as soon as the
			// telemetry coverage and sustain gates clear.
			cfg.Auto = &plan.AutoOptions{
				Policy:      plan.Static{},
				SampleEvery: 50,
			}
			cfg.ScaleOutAbove = 150
			cfg.ScaleSustain = 3
			res, err := keycount.Run(cfg)
			errs[p] = err
			epochs[p] = res.Epochs
			results[p] = res
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}

	if !logs.contains("admitting standby") {
		t.Fatal("the autoscaler never admitted the registered standby")
	}
	if !logs.contains("decided join of process 3") {
		t.Fatal("the standby's join was never decided")
	}
	for p := 0; p < procs; p++ {
		if epochs[p] != durationEpochs {
			t.Fatalf("process %d stopped at epoch %d, want %d", p, epochs[p], durationEpochs)
		}
	}
	checkLatency(t, results, map[int]int64{0: 1, 1: 1, 2: 1, procs - 1: logs.joinEpoch(t, procs-1)}, durationEpochs)

	want := maxCounts(t, ref.lines)
	got := maxCounts(t, clu.lines)
	var off int
	for k, w := range want {
		if g := got[k]; g != w {
			off++
			if off <= 5 {
				t.Errorf("key %s: final count %d, reference %d", k, g, w)
			}
		}
	}
	if off > 0 {
		t.Fatalf("%d of %d keys differ from the reference", off, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("autoscale membership run produced %d distinct keys, reference %d", len(got), len(want))
	}
}
