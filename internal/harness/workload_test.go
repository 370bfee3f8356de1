package harness_test

import (
	"testing"

	"megaphone/internal/harness"
)

func fill(wl harness.Workload, domain uint64, worker int, epoch int64, n int) []uint64 {
	out := make([]uint64, n)
	wl.Fill(out, domain, worker, epoch)
	return out
}

// TestWorkloadParse round-trips the flag syntax.
func TestWorkloadParse(t *testing.T) {
	cases := []struct {
		in   string
		want harness.WorkloadKind
		bad  bool
	}{
		{"uniform", harness.Uniform, false},
		{"zipf", harness.Zipf, false},
		{"zipf:1.5", harness.Zipf, false},
		{"hotshift", harness.HotShift, false},
		{"hotshift:0.8,16,2000", harness.HotShift, false},
		{"zipf:0.5", 0, true},
		{"hotshift:0.8", 0, true},
		{"hotshift:2,4,5", 0, true},
		{"pareto", 0, true},
		{"uniform:3", 0, true},
	}
	for _, c := range cases {
		wl, err := harness.ParseWorkload(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseWorkload(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", c.in, err)
			continue
		}
		if wl.Kind != c.want {
			t.Errorf("ParseWorkload(%q).Kind = %v, want %v", c.in, wl.Kind, c.want)
		}
		// String renders something Parse accepts again.
		if _, err := harness.ParseWorkload(wl.String()); err != nil {
			t.Errorf("round-trip of %q failed: %v", c.in, err)
		}
	}
}

// TestWorkloadDeterminism: the same coordinates replay the same keys, and
// different workers/epochs decorrelate.
func TestWorkloadDeterminism(t *testing.T) {
	for _, wl := range []harness.Workload{
		{},
		{Kind: harness.Zipf},
		{Kind: harness.HotShift, ShiftEvery: 10},
	} {
		a := fill(wl, 1<<16, 1, 7, 256)
		b := fill(wl, 1<<16, 1, 7, 256)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
			}
		}
		if !same {
			t.Errorf("%v: generation not deterministic", wl)
		}
		c := fill(wl, 1<<16, 2, 7, 256)
		diff := 0
		for i := range a {
			if a[i] != c[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Errorf("%v: workers fully correlated", wl)
		}
	}
}

// TestWorkloadUniformSpread: uniform keys hit all quarters of the domain
// roughly evenly.
func TestWorkloadUniformSpread(t *testing.T) {
	const domain, n = 1 << 16, 1 << 14
	quarters := make([]int, 4)
	for e := int64(1); e <= 16; e++ {
		for _, k := range fill(harness.Workload{}, domain, 0, e, n/16) {
			quarters[k/(domain/4)]++
		}
	}
	for q, c := range quarters {
		if c < n/8 || c > n/2 {
			t.Errorf("quarter %d holds %d of %d keys", q, c, n)
		}
	}
}

// TestWorkloadZipfHead: the zipf head (top 1% of the key space) carries a
// large share of the traffic, and larger exponents concentrate it more.
func TestWorkloadZipfHead(t *testing.T) {
	const domain, n = 1 << 16, 1 << 15
	headShare := func(s float64) float64 {
		head := 0
		total := 0
		for e := int64(1); e <= 8; e++ {
			for _, k := range fill(harness.Workload{Kind: harness.Zipf, ZipfS: s}, domain, 0, e, n/8) {
				if k < domain/100 {
					head++
				}
				total++
			}
		}
		return float64(head) / float64(total)
	}
	mild := headShare(1.1)
	steep := headShare(1.5)
	if mild < 0.3 {
		t.Errorf("zipf(1.1) head share %.2f, want >= 0.3", mild)
	}
	if steep <= mild {
		t.Errorf("zipf(1.5) head share %.2f not above zipf(1.1) %.2f", steep, mild)
	}
}

// TestWorkloadHotShift: the configured fraction lands in the hot set, and
// the hot set moves across shift boundaries.
func TestWorkloadHotShift(t *testing.T) {
	const domain, n = 1 << 16, 1 << 14
	wl := harness.Workload{Kind: harness.HotShift, HotFraction: 0.8, HotKeys: 4, ShiftEvery: 100}

	// The hot keys are the ones drawn far more often than a uniform draw
	// over the domain would (n/domain = 0.25 times each).
	hotSet := func(epoch int64) (map[uint64]bool, float64) {
		counts := make(map[uint64]int)
		for _, k := range fill(wl, domain, 0, epoch, n) {
			counts[k]++
		}
		set, hot := make(map[uint64]bool), 0
		for k, c := range counts {
			if c > 100 {
				set[k] = true
				hot += c
			}
		}
		return set, float64(hot) / n
	}
	at5, share := hotSet(5)
	if uint64(len(at5)) != wl.HotKeys || share < 0.7 || share > 0.9 {
		t.Errorf("%d hot keys taking %.2f of the draws, want %d taking ~0.8", len(at5), share, wl.HotKeys)
	}
	sameKeys := func(a, b map[uint64]bool) bool {
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return len(a) == len(b)
	}
	if at105, _ := hotSet(105); sameKeys(at5, at105) {
		t.Error("hot set did not move across a shift boundary")
	}
	if at95, _ := hotSet(95); !sameKeys(at5, at95) {
		t.Error("hot set moved within a shift period")
	}
}
