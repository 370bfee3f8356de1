// Package benchkit is megabench's helper package: the workload table, the
// child-process phase runner, the statistics the end-to-end metrics are
// made of, the span recorder of the traced run, and the per-layer ladder.
// Everything here calls the engine through its public functions only; see
// ../README.md for the metric definitions.
package benchkit

import (
	"math"
	"sort"
	"time"
)

// Median returns the median of vals (the mean of the two middle values for
// an even count, 0 for none). vals is not modified.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quantile returns the q-quantile of sorted (ascending) by the
// nearest-rank rule: the smallest value with at least a share q of the
// samples at or below it.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailBeyond is how many samples must lie beyond a reported percentile: a
// p99 over 300 samples is the 3rd largest value, which is a maximum in all
// but name.
const tailBeyond = 10

// TailPercentile returns the want-quantile of sorted when at least
// tailBeyond samples lie beyond it, and otherwise the highest quantile
// that does have them. The quantile actually used is returned with the
// value (0 when there are too few samples for any tail at all, in which
// case the value is the median).
func TailPercentile(sorted []float64, want float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 2*tailBeyond {
		return Quantile(sorted, 0.5), 0
	}
	used = want
	if most := 1 - float64(tailBeyond)/float64(n); used > most {
		used = most
	}
	return Quantile(sorted, used), used
}

// Window is one migration's span in time since the start of the timed
// phase.
type Window struct {
	Start, End time.Duration
	Strategy   string
}

// Classes of a stretch of the timed phase. A stretch that is neither steady
// nor inside a migration window (the settle time at the start, the guard
// band around each window) is measured but pooled nowhere.
const (
	ClassNone   = -2
	ClassSteady = -1
)

// Classifier sorts stretches of the timed phase (the windows of
// harness.Run's latency timeline) into migration windows and steady state.
type Classifier struct {
	Windows []Window
	// Settle is how long after the start nothing is steady yet.
	Settle time.Duration
	// Tail extends every window past its plan's end: the backlog a stall
	// builds drains after the last step completes, and those epochs belong
	// to the migration that delayed them.
	Tail time.Duration
	// Guard is how far clear of every (extended) window a steady stretch is.
	Guard time.Duration
}

// Class returns the index of the migration window the stretch (from, to]
// overlaps, ClassSteady, or ClassNone.
func (c Classifier) Class(from, to time.Duration) int {
	steady := from >= c.Settle
	for i, w := range c.Windows {
		if to > w.Start && from < w.End+c.Tail {
			return i
		}
		if to > w.Start-c.Guard && from < w.End+c.Tail+c.Guard {
			steady = false
		}
	}
	if steady {
		return ClassSteady
	}
	return ClassNone
}

// Spread is the summary -calibrate prints for one metric over several runs.
type Spread struct {
	Median, Q1, Q3 float64
	// IQR is (Q3-Q1)/Median and Range (max-min)/Median.
	IQR, Range float64
}

// SpreadOf summarises vals; the quartiles are the exclusive-method ones
// Python's statistics.quantiles(vals, n=4) returns, because that is what
// the acceptance check is computed with.
func SpreadOf(vals []float64) Spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Spread{}
	}
	quart := func(k int) float64 {
		if n == 1 {
			return s[0]
		}
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	sp := Spread{Median: Median(s), Q1: quart(1), Q3: quart(3)}
	if sp.Median != 0 {
		sp.IQR = (sp.Q3 - sp.Q1) / sp.Median
		sp.Range = (s[n-1] - s[0]) / sp.Median
	}
	return sp
}
