package benchkit

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		// one wild value among eight moves the median of eight hardly at all
		{[]float64{50, 51, 49, 50, 900, 52, 48, 50}, 50},
	} {
		if got := Median(c.vals); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
	vals := []float64{3, 1, 2}
	Median(vals)
	if vals[0] != 3 {
		t.Error("Median reordered its argument")
	}
}

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// 2000 samples: p99 has 20 beyond it and stands.
	if v, q := TailPercentile(ramp(2000), 0.99); q != 0.99 || v != 1980 {
		t.Errorf("2000 samples: got value %v at q=%v, want 1980 at 0.99", v, q)
	}
	// 1000 samples: exactly ten beyond p99.
	if v, q := TailPercentile(ramp(1000), 0.99); q != 0.99 || v != 990 {
		t.Errorf("1000 samples: got value %v at q=%v, want 990 at 0.99", v, q)
	}
	// 300 samples: p99 would leave 3 beyond; the rule falls back to the
	// quantile with ten beyond, the 290th value.
	v, q := TailPercentile(ramp(300), 0.99)
	if v != 290 || math.Abs(q-290.0/300) > 1e-12 {
		t.Errorf("300 samples: got value %v at q=%v, want 290 at %v", v, q, 290.0/300)
	}
	// Too few samples for any tail: the median, flagged by q=0.
	if v, q := TailPercentile(ramp(15), 0.99); q != 0 || v != 8 {
		t.Errorf("15 samples: got value %v at q=%v, want the median 8 at q=0", v, q)
	}
	if v, q := TailPercentile(nil, 0.99); v != 0 || q != 0 {
		t.Errorf("no samples: got %v, %v", v, q)
	}
}

func TestClassifier(t *testing.T) {
	ms := time.Millisecond
	c := Classifier{
		Settle: 100 * ms, Tail: 10 * ms, Guard: 20 * ms,
		Windows: []Window{{Start: 500 * ms, End: 600 * ms, Strategy: "fluid"}, {Start: 1000 * ms, End: 1005 * ms, Strategy: "all-at-once"}},
	}
	for _, tc := range []struct {
		from, to time.Duration
		want     int
		why      string
	}{
		{0, 20 * ms, ClassNone, "still settling"},
		{90 * ms, 110 * ms, ClassNone, "begins before the settle time is over"},
		{100 * ms, 120 * ms, ClassSteady, "settled"},
		{460 * ms, 480 * ms, ClassSteady, "ends just clear of the guard before window 0"},
		{470 * ms, 490 * ms, ClassNone, "reaches into the guard before window 0"},
		{490 * ms, 510 * ms, 0, "reaches into window 0"},
		{590 * ms, 610 * ms, 0, "window 0's plan ends in it"},
		{605 * ms, 625 * ms, 0, "begins in window 0's tail"},
		{610 * ms, 630 * ms, ClassNone, "begins where the tail ends: guard"},
		{630 * ms, 650 * ms, ClassSteady, "begins where the guard ends"},
		{1000 * ms, 1020 * ms, 1, "window 1 and its tail"},
		{1035 * ms, 1055 * ms, ClassSteady, "steady after the last window"},
	} {
		if got := c.Class(tc.from, tc.to); got != tc.want {
			t.Errorf("Class(%v, %v) = %d, want %d (%s)", tc.from, tc.to, got, tc.want, tc.why)
		}
	}
}

func TestSpreadOfMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	sp := SpreadOf([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if sp.Q1 != 3.5 || sp.Median != 13.5 || sp.Q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", sp.Q1, sp.Median, sp.Q3)
	}
	if want := (31 - 3.5) / 13.5; math.Abs(sp.IQR-want) > 1e-12 {
		t.Errorf("IQR = %v, want %v", sp.IQR, want)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	sp = SpreadOf([]float64{10, 20, 40})
	if sp.Q1 != 10 || sp.Q3 != 40 {
		t.Errorf("three values: quartiles %v %v, want 10 40", sp.Q1, sp.Q3)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []Span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "a1", Start: 12, End: 18, Parent: 1},
	}
	self := SelfTimes(spans)
	// run: 100 - ([10,50) = 40) - ([90,100) = 10) = 50
	want := []int64{50, 14, 30, 30, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	tot := Totals(spans)
	if tot["run"].Self != 50 || tot["a"].Total != 20 || tot["a"].Count != 1 {
		t.Errorf("Totals = %+v", tot)
	}
}

func TestAssignmentsMoveAQuarter(t *testing.T) {
	for _, logBins := range []int{8, 16} { // the workloads' bins and the ladder's
		bins := 1 << uint(logBins)
		initial, imbalanced := Assignments(bins, 2)
		moved := 0
		for b := range initial {
			if initial[b] != imbalanced[b] {
				moved++
				if initial[b] != 1 || imbalanced[b] != 0 {
					t.Fatalf("bin %d moves %d -> %d, want 1 -> 0", b, initial[b], imbalanced[b])
				}
			}
		}
		if moved != bins/4 {
			t.Errorf("2^%d bins: %d move, want a quarter (%d)", logBins, moved, bins/4)
		}
	}
}

func TestPacedShape(t *testing.T) {
	// One of the Repeats paced children of a default run: two groups of
	// four, so that each child migrates four times with each strategy, twice
	// in each direction.
	s := PacedShape(Split(loadSpec(t).RunSeconds, false).Paced / Repeats)
	if s.Migrations != 8 {
		t.Errorf("a paced child of the default run has %d migrations, want 8", s.Migrations)
	}
	last := s.Settle + s.Steady + 4*(s.Slot["fluid"]+s.Slot["all-at-once"])
	if s.Duration-last < 900*time.Millisecond {
		t.Errorf("the last migration's slot ends %v before the phase does", s.Duration-last)
	}
	for k, want := range []string{"fluid", "fluid", "all-at-once", "all-at-once", "fluid"} {
		if got := StrategyOf(k); got != want {
			t.Errorf("StrategyOf(%d) = %s, want %s", k, got, want)
		}
	}
}
