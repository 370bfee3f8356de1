package nexmark_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/harness"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

// epochLines collects sink output per epoch. Recovery replays every epoch
// from the checkpoint on, so merging phase 1 (pre-crash) and phase 2
// (recovered) takes each epoch's lines from the later phase that produced
// them — with q8's canonical within-epoch semantics the replayed epochs are
// bit-identical anyway, which this test pins.
type epochLines struct {
	mu sync.Mutex
	m  map[uint64][]string
}

func (c *epochLines) sink(t nexmark.Time, lines []string) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[uint64][]string)
	}
	c.m[uint64(t)] = append(c.m[uint64(t)], lines...)
	c.mu.Unlock()
}

// canon renders the per-epoch multisets canonically.
func (c *epochLines) canon() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	epochs := make([]uint64, 0, len(c.m))
	for e := range c.m {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	var b strings.Builder
	for _, e := range epochs {
		lines := append([]string(nil), c.m[e]...)
		sort.Strings(lines)
		fmt.Fprintf(&b, "%d: %s\n", e, strings.Join(lines, " | "))
	}
	return b.String()
}

// overlay returns c's epochs with o's epochs replacing any overlap.
func (c *epochLines) overlay(o *epochLines) *epochLines {
	out := &epochLines{m: make(map[uint64][]string)}
	for e, l := range c.m {
		out.m[e] = l
	}
	for e, l := range o.m {
		out.m[e] = l
	}
	return out
}

// TestQ8RecoveryEquivalence runs the windowed q8 join — whose bins carry
// pending post-dated expiry records across the checkpoint boundary — cut
// mid-stream and recovered, against an uninterrupted reference. Equal
// per-epoch output requires the restored bins' pending heaps to fire at
// exactly the epochs the uninterrupted run expires registrations at: this
// is the test that would catch a checkpoint that dropped or mistimed
// pending records.
func TestQ8RecoveryEquivalence(t *testing.T) {
	base := nexmark.RunConfig{
		Query: "q8",
		Params: nexmark.Params{
			Impl:         nexmark.Megaphone,
			LogBins:      4,
			WindowEpochs: 60,
		},
		Gen: nexmark.GenConfig{ActiveAuctions: 50, ActivePeople: 50, AuctionEpochs: 25},
		Config: harness.Config{
			Workers:    2,
			Rate:       20000,
			Duration:   700 * time.Millisecond,
			EpochEvery: time.Millisecond,
			Strategy:   plan.Batched,
			Batch:      4,
			MigrateAt:  120 * time.Millisecond,
		},
	}

	var ref epochLines
	refCfg := base
	refCfg.Params.Sink = ref.sink
	if _, err := nexmark.Run(refCfg); err != nil {
		t.Fatal(err)
	}
	if len(ref.m) == 0 {
		t.Fatal("reference run produced no q8 output")
	}

	dir := t.TempDir()
	var phase1 epochLines
	crashed := base
	crashed.Duration = 400 * time.Millisecond
	crashed.CheckpointDir = dir
	crashed.CheckpointEvery = 150 * time.Millisecond
	crashed.Params.Sink = phase1.sink
	res1, err := nexmark.Run(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Checkpoints) == 0 {
		t.Fatal("crashed run completed no checkpoints")
	}

	var phase2 epochLines
	recovered := base
	recovered.CheckpointDir = dir
	recovered.CheckpointEvery = 150 * time.Millisecond
	recovered.Recover = true
	recovered.Params.Sink = phase2.sink
	res2, err := nexmark.Run(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RestoreEpoch < 150 || res2.RestoreEpoch > 400 {
		t.Fatalf("recovered from epoch %d, expected a checkpoint in [150, 400]", res2.RestoreEpoch)
	}

	merged := phase1.overlay(&phase2)
	if got, want := merged.canon(), ref.canon(); got != want {
		line := firstDiffLine(t, want, got)
		t.Fatalf("recovered q8 output differs from the uninterrupted run (restored at epoch %d): %s",
			res2.RestoreEpoch, line)
	}
}

func firstDiffLine(t *testing.T, want, got string) string {
	t.Helper()
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("first divergence:\n  want %q\n  got  %q", w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(w), len(g))
}
