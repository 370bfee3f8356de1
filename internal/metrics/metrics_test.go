package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestBucketRoundTrip: bucketLow(bucketOf(v)) <= v and the relative error is
// bounded by the sub-bucket resolution.
func TestBucketRoundTrip(t *testing.T) {
	prop := func(raw uint32) bool {
		v := int64(raw)
		b := bucketOf(v)
		low := bucketLow(b)
		if low > v {
			return false
		}
		// Relative resolution: low >= v * (1 - 2/subBuckets).
		return float64(v-low) <= float64(v)/float64(subBuckets)*2+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBucketMonotone: bucket index is monotone in the value.
func TestBucketMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 37 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
	}
}

// TestQuantilesAgainstSort compares histogram quantiles with exact ones.
func TestQuantilesAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	var vals []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		h.Record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99, 0.9999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		// Log-linear buckets guarantee ~2/subBuckets relative error.
		lo := float64(exact) * 0.9
		hi := float64(exact)*1.1 + 2
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("q=%v: got %d, exact %d", q, got, exact)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %d, want max %d", h.Quantile(1), h.Max())
	}
}

// TestCCDFMonotone: CCDF fractions are non-increasing and end at 0.
func TestCCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Record(int64(rng.Intn(1 << 24)))
	}
	pts := h.CCDF()
	if len(pts) == 0 {
		t.Fatal("empty CCDF")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction > pts[i-1].Fraction {
			t.Fatalf("CCDF not monotone at %d", i)
		}
		if pts[i].Value <= pts[i-1].Value {
			t.Fatalf("CCDF values not increasing at %d", i)
		}
	}
	if last := pts[len(pts)-1].Fraction; last != 0 {
		t.Fatalf("CCDF does not end at 0: %v", last)
	}
}

// TestTimelineWindows: flushed samples expose per-window percentiles and
// reset between windows.
func TestTimelineWindows(t *testing.T) {
	tl := NewTimeline()
	tl.Record(1e6) // 1ms
	tl.Record(2e6)
	tl.Flush(0.25)
	tl.Record(100e6) // 100ms spike
	tl.Flush(0.5)
	tl.Flush(0.75) // empty window
	s := tl.Samples()
	if len(s) != 3 {
		t.Fatalf("samples = %d, want 3", len(s))
	}
	if s[0].Max > 3 || s[0].Max < 1.9 {
		t.Errorf("window 0 max = %v, want ~2", s[0].Max)
	}
	if s[1].Max < 90 {
		t.Errorf("window 1 max = %v, want ~100", s[1].Max)
	}
	if s[2].Max != 0 {
		t.Errorf("empty window max = %v, want 0", s[2].Max)
	}
	if got := tl.MaxOver(0, 1); got < 90 {
		t.Errorf("MaxOver = %v, want >= 90", got)
	}
}

// TestSeries covers Series helpers.
func TestSeries(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	if s.Max() != 99 {
		t.Errorf("max = %v", s.Max())
	}
	if q := s.Quantile(0.5); q < 48 || q > 51 {
		t.Errorf("median = %v", q)
	}
}
