package plan

import (
	"testing"

	"megaphone/internal/core"
)

func TestDecisionFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		d      Decision
		assign Assignment
	}{
		{"issued", Decision{Epoch: 1234, Policy: "load-balance", Moves: 3, Steps: 2,
			WindowRecs: 9999, Volume: 555, Gain: 777, Origin: 2}, Assignment{0, 1, 2, 0}},
		{"declined", Decision{Epoch: 88, Policy: "load-balance", Moves: 5, Steps: 5,
			WindowRecs: 12, Declined: true, Reason: ReasonVolume, Volume: 1 << 40, Gain: 3, Origin: 0}, nil},
		{"empty strings", Decision{Epoch: 0}, Assignment{}},
	}
	for _, tc := range cases {
		buf := appendDecisionFrame(nil, tc.d, tc.assign)
		if buf[0] != ctrlKindDecision {
			t.Fatalf("%s: kind byte %d", tc.name, buf[0])
		}
		got, assign, err := parseDecisionFrame(buf[1:])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.d {
			t.Fatalf("%s: got %+v, want %+v", tc.name, got, tc.d)
		}
		if len(assign) != len(tc.assign) {
			t.Fatalf("%s: assignment %v, want %v", tc.name, assign, tc.assign)
		}
		for b := range assign {
			if assign[b] != tc.assign[b] {
				t.Fatalf("%s: assignment %v, want %v", tc.name, assign, tc.assign)
			}
		}
	}
}

func TestDecisionFrameTruncationErrors(t *testing.T) {
	full := appendDecisionFrame(nil, Decision{Epoch: 42, Policy: "load-balance",
		Reason: "x", Moves: 1, Steps: 1, WindowRecs: 2, Volume: 3, Gain: 4, Origin: 1},
		Assignment{1, 0})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := parseDecisionFrame(full[1:cut]); err == nil {
			t.Fatalf("truncation at %d of %d parsed cleanly", cut, len(full))
		}
	}
}

func FuzzDecisionFrameParse(f *testing.F) {
	f.Add(appendDecisionFrame(nil, Decision{Epoch: 7, Policy: "p", Origin: 1}, Assignment{0, 1})[1:])
	f.Fuzz(func(t *testing.T, data []byte) {
		parseDecisionFrame(data) // must not panic
	})
}

// TestAutoControllerCostGateDeclines exercises the cost gate end to end on a
// single process: a policy that always proposes a huge-volume move is vetoed
// by the model, the decline lands in Decisions with its reason, and no plan
// ever starts.
func TestAutoControllerCostGateDeclines(t *testing.T) {
	const workers, logBins = 2, 2
	meter := core.NewLoadMeter(workers, logBins)
	a := &AutoController{
		Controller: NewController(nil, nil),
		opts: AutoOptions{
			Meter:  meter,
			Policy: flipBin0{},
			Cost:   &CostModel{MigrateNanosPerRec: 1 << 40}, // any volume is ruinous
		},
		current: Initial(1<<logBins, workers),
		sampler: &sampler{source: meter},
		lastHot: -1,
	}
	a.opts.defaults()
	// Hand-feed a window and cumulative state instead of running a dataflow.
	// Bins 0 and 2 are hot on worker 0; shedding bin 0 to worker 1 drops the
	// max from 5ms to 3ms — a real gain, vetoed purely on volume.
	a.window = &core.LoadSnapshot{Workers: workers, Bins: 1 << logBins,
		BinRecs:     []uint64{2000, 0, 3000, 0},
		BinNanos:    []uint64{2_000_000, 0, 3_000_000, 0},
		WorkerRecs:  []uint64{5000, 0},
		WorkerNanos: []uint64{5_000_000, 0},
	}
	a.prev = &core.LoadSnapshot{Workers: workers, Bins: 1 << logBins,
		BinRecs:  []uint64{90_000, 0, 0, 0},
		BinNanos: make([]uint64, 4),
	}
	a.decide(100)
	ds := a.Decisions()
	if len(ds) != 1 || !ds[0].Declined {
		t.Fatalf("expected one declined decision, got %+v", ds)
	}
	if ds[0].Reason != ReasonVolume {
		t.Fatalf("reason = %q, want %q", ds[0].Reason, ReasonVolume)
	}
	if ds[0].Volume != 90_000 {
		t.Fatalf("volume = %d, want the moved bin's cumulative 90000", ds[0].Volume)
	}
	if !a.Idle() {
		t.Fatal("a declined decision started a plan")
	}
	if a.cooldown != a.opts.Cooldown {
		t.Fatalf("decline did not arm the cooldown: %d", a.cooldown)
	}
	// The assignment is unchanged.
	if cur := a.Current(); cur[0] != 0 {
		t.Fatalf("declined decision mutated the assignment: %v", cur)
	}
}

// flipBin0 always proposes moving bin 0 to the other worker.
type flipBin0 struct{}

func (flipBin0) Name() string { return "flip-bin0" }

func (flipBin0) Target(current Assignment, _ *core.LoadSnapshot) (Assignment, bool) {
	target := append(Assignment(nil), current...)
	target[0] = 1 - target[0]
	return target, true
}
