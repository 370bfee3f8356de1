package harness_test

import (
	"reflect"
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
	start, every, dur, err := harness.PlanCheckpoints("test", nil, "", 0, false, nil, 2, 0, 2, time.Millisecond, time.Second)
	if err != nil || dur != time.Second || start != 1 || every != 0 {
		t.Fatalf("fresh plan: start=%d every=%d dur=%v err=%v", start, every, dur, err)
	}
	if _, _, _, err := harness.PlanCheckpoints("test", nil, "", 0, true, nil, 2, 0, 2, time.Millisecond, time.Second); err == nil {
		t.Fatal("recover without a dir must fail")
	}
}
