package harness_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// TestNewDriverRestoredInitial: a recovering run's AutoController must
// start from the restored assignment, not the initial round-robin —
// otherwise every post-recovery plan diffs against ownership the cluster
// no longer has.
func TestNewDriverRestoredInitial(t *testing.T) {
	meter := core.NewLoadMeter(2, 2)
	restored := plan.Assignment{1, 1, 0, 0}
	_, auto := harness.NewDriver(
		&plan.AutoOptions{Meter: meter, Policy: plan.Static{}, Strategy: plan.Batched, Batch: 1},
		nil, nil, 4, 2, restored)
	if auto == nil {
		t.Fatal("auto options did not produce an AutoController")
	}
	if got := auto.Current(); !reflect.DeepEqual(got, restored) {
		t.Fatalf("AutoController starts from %v, want the restored %v", got, restored)
	}
	_, auto = harness.NewDriver(
		&plan.AutoOptions{Meter: meter, Policy: plan.Static{}, Strategy: plan.Batched, Batch: 1},
		nil, nil, 4, 2, nil)
	if got := auto.Current(); !reflect.DeepEqual(got, plan.Initial(4, 2)) {
		t.Fatalf("fresh AutoController starts from %v, want round-robin", got)
	}
}

// TestPlanCheckpointsTrimsDuration: a recovered run's schedule ends where
// the uninterrupted run's would have.
func TestPlanCheckpointsTrimsDuration(t *testing.T) {
	start, every, dur, err := harness.PlanCheckpoints("test", nil, 2, "", 0, false, 2, 0, 2, time.Millisecond, time.Second)
	if err != nil || dur != time.Second || start != 1 || every != 0 {
		t.Fatalf("fresh plan: start=%d every=%d dur=%v err=%v", start, every, dur, err)
	}
	if _, _, _, err := harness.PlanCheckpoints("test", nil, 2, "", 0, true, 2, 0, 2, time.Millisecond, time.Second); err == nil {
		t.Fatal("recover without a dir must fail")
	}
}

// TestPlanCheckpointsRefusesUnrestorable: a recovering run refuses, before
// it builds anything, a checkpoint whose assignment names a worker outside
// the execution and one whose operators' assignments disagree — the
// restore moves would route to a worker that does not exist, or name two
// owners for one bin.
func TestPlanCheckpointsRefusesUnrestorable(t *testing.T) {
	write := func(t *testing.T, assignments map[string][]int) string {
		dir := t.TempDir()
		for op, a := range assignments {
			for w := 0; w < 2; w++ {
				cw, err := core.NewCheckpointWriter(dir, op, 10, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := cw.Finish(2, 1, core.TransferBinary.Name(), a, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	for _, row := range []struct {
		name        string
		assignments map[string][]int
		want        string // "" when the checkpoint restores
	}{
		{"agree", map[string][]int{"a": {1, 1}, "b": {1, 1}}, ""},
		{"worker-out-of-range", map[string][]int{"a": {0, 5}}, "outside"},
		{"operators-disagree", map[string][]int{"a": {0, 1}, "b": {1, 0}}, "differently"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var ops []string
			for op := range row.assignments {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			start, _, _, err := harness.PlanCheckpoints("test", ops, 1, write(t, row.assignments), 0, true,
				2, 0, 2, time.Millisecond, time.Second)
			switch {
			case row.want == "" && (err != nil || start != 10):
				t.Fatalf("start=%d err=%v, want a recovery from epoch 10", start, err)
			case row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)):
				t.Fatalf("err = %v, want one mentioning %q", err, row.want)
			}
		})
	}
}
