package plan

import (
	"fmt"

	"megaphone/internal/core"
)

// Policy decides reconfigurations from measured load: the role the paper
// assigns to an external controller such as DS2, Dhalion or Chi (Section
// 4.4). A policy inspects the load observed over the last sampling window
// and either proposes a new bin-to-worker assignment or declines to act.
//
// Policies must be deterministic: the same (current, load) inputs yield the
// same target, so experiment runs reproduce.
type Policy interface {
	// Name identifies the policy in flags and experiment output.
	Name() string
	// Target returns the desired assignment given the current one and the
	// load of the last window; ok is false when no reconfiguration is
	// warranted. Implementations must not mutate current and must return a
	// fresh Assignment when ok is true.
	Target(current Assignment, load *core.LoadSnapshot) (Assignment, bool)
}

// Default policy tuning: a rebalance triggers only when the hottest worker
// exceeds the mean load by DefaultHysteresis, and windows with fewer than
// DefaultMinRecords records are ignored entirely (an idle system has nothing
// worth moving, and tiny samples are noise).
const (
	DefaultHysteresis = 0.25
	DefaultMinRecords = 1024
)

// PolicyByName resolves the policies reachable from command-line flags.
func PolicyByName(name string, hysteresis float64) (Policy, error) {
	switch name {
	case "load-balance":
		return LoadBalance{Hysteresis: hysteresis}, nil
	case "static":
		return Static{}, nil
	default:
		return nil, fmt.Errorf("plan: unknown policy %q (want load-balance or static)", name)
	}
}

// Static never reconfigures: the do-nothing baseline that still meters, so
// ablations can report per-worker load without acting on it.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Target implements Policy.
func (Static) Target(Assignment, *core.LoadSnapshot) (Assignment, bool) { return nil, false }

// LoadBalance greedily drains overloaded workers: while some worker exceeds
// the mean window load by the hysteresis fraction, its heaviest bin whose
// move strictly reduces the pairwise imbalance is reassigned to the
// currently least-loaded worker. The result is a small diff — bins on
// balanced workers never move — rather than a full repack.
type LoadBalance struct {
	// Hysteresis is the tolerated overload fraction above the mean before
	// any bin moves (DefaultHysteresis when 0). Small imbalances inside the
	// band never trigger a plan, so the system cannot thrash.
	Hysteresis float64

	maxMoves int // caps the moves of one decision; 0 = bounded only by the bin count
}

// Name implements Policy.
func (p LoadBalance) Name() string { return "load-balance" }

// Target implements Policy.
func (p LoadBalance) Target(current Assignment, load *core.LoadSnapshot) (Assignment, bool) {
	if load.TotalRecs() < DefaultMinRecords {
		return nil, false
	}
	workers := allWorkers(load.Workers)
	target := append(Assignment(nil), current...)
	moves := greedyBalance(target, load.BinRecs, workers, hyst(p.Hysteresis), p.maxMoves)
	return target, moves > 0
}

func hyst(h float64) float64 {
	if h <= 0 {
		return DefaultHysteresis
	}
	return h
}

func allWorkers(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// greedyBalance repeatedly moves the heaviest eligible bin from the most
// loaded to the least loaded worker of the set while the most loaded worker
// exceeds the mean by the hysteresis fraction. A bin is eligible when its
// load is non-zero and strictly smaller than the pairwise load gap, so every
// move strictly shrinks the gap and the loop terminates. Mutates target in
// place and returns the number of moves.
func greedyBalance(target Assignment, binLoad []uint64, set []int, hysteresis float64, maxMoves int) int {
	if len(set) < 2 {
		return 0
	}
	loads := make([]uint64, 0, len(set))
	index := make(map[int]int, len(set)) // worker -> position in set
	var total uint64
	for i, w := range set {
		index[w] = i
		loads = append(loads, 0)
	}
	for b, w := range target {
		i, ok := index[w]
		if !ok {
			continue // bins outside the set are invisible to the balancer
		}
		loads[i] += binLoad[b]
		total += binLoad[b]
	}
	trigger := float64(total) / float64(len(set)) * (1 + hysteresis)
	if maxMoves <= 0 {
		maxMoves = len(target)
	}
	moves := 0
	for iter := 0; iter < len(target) && moves < maxMoves; iter++ {
		src, dst := 0, 0
		for i := range loads {
			if loads[i] > loads[src] {
				src = i
			}
			if loads[i] < loads[dst] {
				dst = i
			}
		}
		if float64(loads[src]) <= trigger || src == dst {
			break
		}
		gap := loads[src] - loads[dst]
		// Heaviest bin on src that strictly improves; lower bin index wins
		// ties for determinism.
		best, bestLoad := -1, uint64(0)
		for b, w := range target {
			if w != set[src] {
				continue
			}
			l := binLoad[b]
			if l == 0 || l >= gap {
				continue
			}
			if l > bestLoad {
				best, bestLoad = b, l
			}
		}
		if best < 0 {
			break // src's load is a single indivisible bin (or all-zero)
		}
		target[best] = set[dst]
		loads[src] -= bestLoad
		loads[dst] += bestLoad
		moves++
	}
	return moves
}
