// Package metrics provides the measurement machinery of the paper's
// evaluation: latencies recorded "in units of nanoseconds ... in a histogram
// of logarithmically-sized bins" (Section 5), percentile and CCDF
// extraction, and windowed latency timelines.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// subBucketBits is the number of linear subdivisions per power of two,
// giving ~3% relative resolution (HDR-style log-linear binning).
const subBucketBits = 5

const subBuckets = 1 << subBucketBits

// Histogram is a log-linear histogram of non-negative int64 values
// (typically latencies in nanoseconds). The zero value is ready to use.
type Histogram struct {
	counts [64 * subBuckets]int64
	total  int64
	max    int64
	min    int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // position of the top bit
	shift := exp - subBucketBits
	sub := int(v>>uint(shift)) & (subBuckets - 1)
	return (shift+1)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i/subBuckets - 1
	sub := i % subBuckets
	return (int64(subBuckets) + int64(sub)) << uint(shift)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	if v > h.max {
		h.max = v
	}
	if h.total == 1 || v < h.min {
		h.min = v
	}
}

// Count returns the number of observations.
//
//megalint:allow unreached test support: the harness, keycount and nexmark run tests count recorded latencies
func (h *Histogram) Count() int64 { return h.total }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the value at quantile q in [0, 1], with bucket
// resolution. Quantile(1) returns the exact maximum.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// CCDFPoint is one point of a complementary cumulative distribution: the
// fraction of observations strictly greater than Value.
type CCDFPoint struct {
	Value    int64
	Fraction float64
}

// CCDF returns the complementary CDF over the occupied buckets, suitable for
// regenerating Figures 13-15.
func (h *Histogram) CCDF() []CCDFPoint {
	if h.total == 0 {
		return nil
	}
	var pts []CCDFPoint
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		frac := float64(h.total-seen) / float64(h.total)
		pts = append(pts, CCDFPoint{Value: bucketLow(i), Fraction: frac})
	}
	return pts
}

// Summary formats selected percentiles in milliseconds, mirroring the
// paper's overhead tables (90%, 99%, 99.99%, max).
func (h *Histogram) Summary() string {
	ms := func(v int64) float64 { return float64(v) / 1e6 }
	return fmt.Sprintf("90%%=%.2fms 99%%=%.2fms 99.99%%=%.2fms max=%.2fms",
		ms(h.Quantile(0.90)), ms(h.Quantile(0.99)), ms(h.Quantile(0.9999)), ms(h.Max()))
}
