package keycount_test

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/plan"
)

// maxCounts folds "key:count" sink lines into the maximum count seen per
// key. keycount's counts are cumulative and deterministic per epoch, so a
// run's final per-key count equals its maximum emitted count — a view that
// is insensitive to the duplicate emissions a crash-recovery replay
// produces and to output lost in the crash (recovery re-emits everything
// from the checkpoint epoch on).
type maxCounts struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (c *maxCounts) add(line string) {
	i := strings.IndexByte(line, ':')
	if i < 0 {
		return
	}
	n, err := strconv.ParseUint(line[i+1:], 10, 64)
	if err != nil {
		return
	}
	key := line[:i]
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	if n > c.m[key] {
		c.m[key] = n
	}
	c.mu.Unlock()
}

func (c *maxCounts) merge(o *maxCounts) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, v := range o.m {
		c.mu.Lock()
		if v > c.m[k] {
			c.m[k] = v
		}
		c.mu.Unlock()
	}
}

func diffMax(t *testing.T, want, got map[string]uint64) {
	t.Helper()
	bad := 0
	for k, v := range want {
		if got[k] != v {
			if bad < 5 {
				t.Errorf("key %s: final count %d, want %d", k, got[k], v)
			}
			bad++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			if bad < 5 {
				t.Errorf("key %s: emitted only by the recovered run", k)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d keys diverge", bad)
	}
}

// TestRecoveryEquivalence pins the checkpoint/restore contract end to end
// in one process: a run cut short mid-stream (state abandoned, exactly what
// a crash leaves behind on disk) and recovered from its newest checkpoint
// produces the same final per-key counts as an uninterrupted run — with a
// migration before the checkpoint, so the restored assignment is not the
// initial one.
func TestRecoveryEquivalence(t *testing.T) {
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 10,
			Preload: true,
		},
		Config: harness.Config{
			Workers:    2,
			Rate:       20000,
			Duration:   900 * time.Millisecond,
			EpochEvery: time.Millisecond,
			Strategy:   plan.AllAtOnce,
			MigrateAt:  150 * time.Millisecond,
		},
	}

	var ref maxCounts
	refCfg := base
	refCfg.Sink = ref.add
	refRes, err := keycount.Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Records == 0 || len(refRes.MigrationSpans) == 0 {
		t.Fatalf("reference degenerate: %d records, %d migrations", refRes.Records, len(refRes.MigrationSpans))
	}

	dir := t.TempDir()
	var phase1 maxCounts
	crashed := base
	crashed.Duration = 550 * time.Millisecond // "crash" mid-run
	crashed.CheckpointDir = dir
	crashed.CheckpointEvery = 200 * time.Millisecond
	crashed.Sink = phase1.add
	res1, err := keycount.Run(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Checkpoints) == 0 {
		t.Fatal("crashed run completed no checkpoints")
	}

	var phase2 maxCounts
	recovered := base
	recovered.CheckpointDir = dir
	recovered.CheckpointEvery = 200 * time.Millisecond
	recovered.Recover = true
	recovered.Sink = phase2.add
	res2, err := keycount.Run(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RestoreEpoch < 200 || res2.RestoreEpoch > 550 {
		t.Fatalf("recovered from epoch %d, expected a checkpoint in [200, 550]", res2.RestoreEpoch)
	}

	merged := &maxCounts{m: make(map[string]uint64)}
	merged.merge(&phase1)
	merged.merge(&phase2)
	diffMax(t, ref.m, merged.m)
}

// TestRecoveredScheduleMatches: the default second migration sits halfway
// from MigrateAt to the end of the whole run, so a run recovered after the
// first migration, which drives only the epochs left after its checkpoint,
// still starts the second one at the epoch the uninterrupted run does.
func TestRecoveredScheduleMatches(t *testing.T) {
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 10,
			Preload: true,
		},
		Config: harness.Config{
			Workers:    2,
			Rate:       20000,
			Duration:   900 * time.Millisecond,
			EpochEvery: time.Millisecond,
			Strategy:   plan.AllAtOnce,
			MigrateAt:  150 * time.Millisecond,
		},
		Extras: harness.Extras{MigrateTwo: true},
	}
	const second = 150 + (900-150)/2 // the second migration's epoch
	epochOf := func(sp harness.Span) int64 { return int64(math.Round(sp.Start * 1e3)) }

	ref, err := keycount.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.MigrationSpans) != 2 || epochOf(ref.MigrationSpans[1]) < second {
		t.Fatalf("reference migrations %+v, want two, the second from epoch %d", ref.MigrationSpans, second)
	}

	// The uninterrupted run, cut short after its first migration and
	// before its second.
	dir := t.TempDir()
	crashed := base
	crashed.Duration = 450 * time.Millisecond
	crashed.MigrateTwo = false
	crashed.CheckpointDir = dir
	crashed.CheckpointEvery = 200 * time.Millisecond
	if _, err := keycount.Run(crashed); err != nil {
		t.Fatal(err)
	}

	recovered := base
	recovered.CheckpointDir = dir
	recovered.CheckpointEvery = 200 * time.Millisecond
	recovered.Recover = true
	res, err := keycount.Run(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoreEpoch != 400 {
		t.Fatalf("recovered from epoch %d, want the checkpoint at 400", res.RestoreEpoch)
	}
	if len(res.MigrationSpans) != 1 || epochOf(res.MigrationSpans[0]) != second {
		t.Fatalf("recovered run's migrations %+v, want one from epoch %d (the reference's second started at %d)",
			res.MigrationSpans, second, epochOf(ref.MigrationSpans[1]))
	}
}

// TestRecoverWithoutCheckpointFails: recovery is explicit about an empty
// checkpoint directory instead of silently starting fresh.
func TestRecoverWithoutCheckpointFails(t *testing.T) {
	cfg := keycount.RunConfig{
		Params: keycount.Params{Variant: keycount.HashCount, LogBins: 4, Domain: 1 << 10},
		Config: harness.Config{
			Workers:       1,
			Rate:          1000,
			Duration:      20 * time.Millisecond,
			CheckpointDir: t.TempDir(),
			Recover:       true,
		},
	}
	if _, err := keycount.Run(cfg); err == nil || !strings.Contains(err.Error(), "no complete checkpoint") {
		t.Fatalf("expected a no-checkpoint error, got %v", err)
	}
}

// TestCheckpointWriteFailureNonFatal: an unwritable checkpoint directory
// must not kill the run — the epoch is simply never committed (so recovery
// would fall back to an earlier one), and the stream keeps flowing.
func TestCheckpointWriteFailureNonFatal(t *testing.T) {
	cfg := keycount.RunConfig{
		Params: keycount.Params{Variant: keycount.HashCount, LogBins: 4, Domain: 1 << 10},
		Config: harness.Config{
			Workers:         1,
			Rate:            2000,
			Duration:        120 * time.Millisecond,
			EpochEvery:      time.Millisecond,
			CheckpointDir:   "/dev/null/not-a-directory",
			CheckpointEvery: 40 * time.Millisecond,
		},
	}
	res, err := keycount.Run(cfg)
	if err != nil {
		t.Fatalf("run died on an unwritable checkpoint dir: %v", err)
	}
	if res.Records == 0 {
		t.Fatal("run injected no records")
	}
	if len(res.Checkpoints) != 0 {
		t.Fatalf("reported %d completed checkpoints into an unwritable dir", len(res.Checkpoints))
	}
}

// TestAutoRecover: a policy-driven run checkpoints and recovers too (the
// AutoController is reseeded from the restored assignment; see
// harness's newDriver).
func TestAutoRecover(t *testing.T) {
	dir := t.TempDir()
	base := keycount.RunConfig{
		Params: keycount.Params{
			Variant: keycount.HashCount,
			LogBins: 4,
			Domain:  1 << 10,
			Preload: true,
		},
		Config: harness.Config{
			Workers:         2,
			Rate:            10000,
			Duration:        500 * time.Millisecond,
			EpochEvery:      time.Millisecond,
			CheckpointDir:   dir,
			CheckpointEvery: 150 * time.Millisecond,
			Auto:            &plan.AutoOptions{Policy: plan.LoadBalance{Hysteresis: 0.1}, Strategy: plan.Batched, Batch: 4, SampleEvery: 50, Cooldown: 50},
		},
	}
	crashed := base
	crashed.Duration = 350 * time.Millisecond
	if _, err := keycount.Run(crashed); err != nil {
		t.Fatal(err)
	}
	rec := base
	rec.Auto = &plan.AutoOptions{Policy: plan.LoadBalance{Hysteresis: 0.1}, Strategy: plan.Batched, Batch: 4, SampleEvery: 50, Cooldown: 50}
	rec.Recover = true
	res, err := keycount.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoreEpoch == 0 {
		t.Fatal("auto-controlled recovery did not restore a checkpoint")
	}
}

// TestCheckpointRejectsNativeVariant: native variants have no migrateable
// state to drain.
func TestCheckpointRejectsNativeVariant(t *testing.T) {
	cfg := keycount.RunConfig{
		Params: keycount.Params{Variant: keycount.NativeHash, LogBins: 4, Domain: 1 << 10},
		Config: harness.Config{
			CheckpointDir: t.TempDir(),
		},
	}
	if _, err := keycount.Run(cfg); err == nil || !strings.Contains(err.Error(), "migrateable") {
		t.Fatalf("expected a variant error, got %v", err)
	}
}
