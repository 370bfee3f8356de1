package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"megaphone/internal/core"
)

// WorkloadKind selects a key distribution for generated streams.
type WorkloadKind int

const (
	// Uniform draws keys uniformly from the domain (the paper's keycount
	// workload).
	Uniform WorkloadKind = iota
	// Zipf draws keys from a power-law distribution: low keys are hot, and
	// under a dense (range-partitioned) hash the hot keys concentrate in a
	// few bins — the static-skew scenario.
	Zipf
	// HotShift sends a fraction of records to a small hot key set whose
	// location jumps around the domain every ShiftEvery epochs — the moving
	// hotspot an adaptive controller must chase.
	HotShift
)

// String names the kind.
func (k WorkloadKind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case HotShift:
		return "hotshift"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// Workload describes the key distribution of a generated stream. The zero
// value is the uniform workload. Generation is deterministic in (Seed,
// worker, epoch, position): the same configuration replays the same stream.
type Workload struct {
	Kind WorkloadKind
	// ZipfS is the power-law exponent for Zipf (> 1; default 1.25). Larger
	// values concentrate more of the traffic on fewer keys.
	ZipfS float64
	// HotFraction is the share of HotShift records drawn from the hot set
	// (default 0.9).
	HotFraction float64
	// HotKeys is the hot set size for HotShift (default 4).
	HotKeys uint64
	// HotStride spaces the hot keys (default 1, a contiguous hot range).
	// Under a dense (range-partitioned) hash, a stride of
	// binSpan*workers places every hot key in bins of one worker's residue
	// class — the worst-case hotspot for the initial round-robin
	// assignment. It must divide the domain for the hot set to stay exact
	// across wraps.
	HotStride uint64
	// ShiftEvery is the epoch period of HotShift's hot-set jumps
	// (0 = the hot set never moves).
	ShiftEvery int64
	// Seed perturbs the deterministic generation.
	Seed uint64
}

func (wl Workload) defaults() Workload {
	if wl.ZipfS <= 1 {
		wl.ZipfS = 1.25
	}
	if wl.HotFraction <= 0 || wl.HotFraction > 1 {
		wl.HotFraction = 0.9
	}
	if wl.HotKeys == 0 {
		wl.HotKeys = 4
	}
	if wl.HotStride == 0 {
		wl.HotStride = 1
	}
	return wl
}

// String renders the workload in the form ParseWorkload accepts.
func (wl Workload) String() string {
	wl = wl.defaults()
	switch wl.Kind {
	case Zipf:
		return fmt.Sprintf("zipf:%g", wl.ZipfS)
	case HotShift:
		if wl.HotStride > 1 {
			return fmt.Sprintf("hotshift:%g,%d,%d,%d", wl.HotFraction, wl.HotKeys, wl.ShiftEvery, wl.HotStride)
		}
		return fmt.Sprintf("hotshift:%g,%d,%d", wl.HotFraction, wl.HotKeys, wl.ShiftEvery)
	default:
		return "uniform"
	}
}

// ParseWorkload parses a workload spec: "uniform", "zipf[:S]", or
// "hotshift[:FRACTION,KEYS,EVERY]" (e.g. "zipf:1.5",
// "hotshift:0.9,8,2000").
func ParseWorkload(s string) (Workload, error) {
	name, args, _ := strings.Cut(s, ":")
	var wl Workload
	switch name {
	case "uniform", "":
		if args != "" {
			return wl, fmt.Errorf("harness: uniform workload takes no arguments")
		}
		return wl, nil
	case "zipf":
		wl.Kind = Zipf
		if args != "" {
			s, err := strconv.ParseFloat(args, 64)
			if err != nil || s <= 1 {
				return wl, fmt.Errorf("harness: zipf exponent %q (want a number > 1)", args)
			}
			wl.ZipfS = s
		}
		return wl, nil
	case "hotshift":
		wl.Kind = HotShift
		if args == "" {
			return wl, nil
		}
		parts := strings.Split(args, ",")
		if len(parts) != 3 && len(parts) != 4 {
			return wl, fmt.Errorf("harness: hotshift wants FRACTION,KEYS,EVERY[,STRIDE], got %q", args)
		}
		frac, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || frac <= 0 || frac > 1 {
			return wl, fmt.Errorf("harness: hotshift fraction %q (want 0 < f <= 1)", parts[0])
		}
		keys, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil || keys == 0 {
			return wl, fmt.Errorf("harness: hotshift key count %q", parts[1])
		}
		every, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || every < 0 {
			return wl, fmt.Errorf("harness: hotshift shift period %q", parts[2])
		}
		wl.HotFraction, wl.HotKeys, wl.ShiftEvery = frac, keys, every
		if len(parts) == 4 {
			stride, err := strconv.ParseUint(parts[3], 10, 64)
			if err != nil || stride == 0 {
				return wl, fmt.Errorf("harness: hotshift stride %q", parts[3])
			}
			wl.HotStride = stride
		}
		return wl, nil
	default:
		return wl, fmt.Errorf("harness: unknown workload %q (want uniform, zipf or hotshift)", name)
	}
}

// Fill writes one batch of keys in [0, domain) for the given worker and
// epoch. The uniform case reproduces the original keycount generator
// exactly (a Mix64 chain), so existing figures are unchanged.
func (wl Workload) Fill(out []uint64, domain uint64, worker int, epoch int64) {
	wl = wl.defaults()
	seed := core.Mix64(uint64(epoch)*31 + uint64(worker) + wl.Seed)
	switch wl.Kind {
	case Zipf:
		// Inverse-CDF sampling of a bounded power law with density ∝ x^-s on
		// [1, domain]: rank 1 is the hottest key. Exact Zipf normalization is
		// not needed for a skew workload — the head concentration matches.
		oneMinusS := 1 - wl.ZipfS
		edge := math.Pow(float64(domain), oneMinusS) - 1
		for i := range out {
			seed = core.Mix64(seed + uint64(i) + 1)
			u := float64(seed>>11) / (1 << 53)
			rank := math.Pow(1+u*edge, 1/oneMinusS)
			k := uint64(rank) - 1
			if k >= domain {
				k = domain - 1
			}
			out[i] = k
		}
	case HotShift:
		phase := uint64(0)
		if wl.ShiftEvery > 0 {
			phase = uint64(epoch / wl.ShiftEvery)
		}
		base := core.Mix64(0x9e3779b97f4a7c15*(phase+1)^wl.Seed) % domain
		cut := uint64(wl.HotFraction * (1 << 53))
		for i := range out {
			seed = core.Mix64(seed + uint64(i) + 1)
			if seed>>11 < cut {
				out[i] = (base + (seed%wl.HotKeys)*wl.HotStride) % domain
			} else {
				out[i] = seed % domain
			}
		}
	default:
		for i := range out {
			seed = core.Mix64(seed + uint64(i) + 1)
			out[i] = seed % domain
		}
	}
}
