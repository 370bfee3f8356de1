package nexmark

import (
	"os"
	"slices"
	"testing"
	"time"

	"megaphone/internal/harness"
)

// TestQueryOpsNameTheCheckpoints: each query's listed megaphone operators
// are exactly the checkpoint subdirectories its runs write, so recovery
// restores every stage and refuses a checkpoint some stage is missing from.
func TestQueryOpsNameTheCheckpoints(t *testing.T) {
	for q, ops := range queryOps {
		dir := t.TempDir()
		_, err := Run(RunConfig{
			Query:  q,
			Params: Params{Impl: Megaphone, LogBins: 2, WindowEpochs: 10},
			Config: harness.Config{
				Workers:         1,
				Rate:            2000,
				Duration:        60 * time.Millisecond,
				CheckpointDir:   dir,
				CheckpointEvery: 20 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		want := slices.Clone(ops)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s wrote checkpoints for %v, queryOps lists %v", q, got, ops)
		}
	}
}
