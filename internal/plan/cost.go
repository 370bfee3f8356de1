package plan

import "megaphone/internal/core"

// CostModel decides whether a proposed reconfiguration pays for itself,
// following Volnes et al. ("To Migrate or not to Migrate"): a migration is
// worth issuing only when the imbalance it recovers over a credible horizon
// exceeds the one-time cost of moving the state. Policies stay pure load
// balancers; the model is a gate the AutoController applies to their output,
// and a gated-off decision is still recorded (Declined) so experiments can
// assert that restraint happened.
//
// Everything is denominated in service nanoseconds, the meter's own unit:
//
//	cost = VolumeRecs·MigrateNanosPerRec + StallNanos
//	gain = (max worker nanos under current − max worker nanos under target)
//	       per window, credited over horizonWindows windows
//
// VolumeRecs approximates state size by the cumulative records routed to the
// moved bins — every applied record left state behind, so the bins that
// absorbed the most records carry the most state.
type CostModel struct {
	// MigrateNanosPerRec prices extracting, shipping and installing one
	// record's worth of state (default 250ns — loopback TCP plus codec work;
	// calibrate upward for real networks or fat values).
	MigrateNanosPerRec uint64
	// StallNanos is the fixed disturbance of one reconfiguration: control
	// broadcast, frontier waits, cache refill (default 1e6 = 1ms, roughly one
	// epoch of disruption at harness cadence).
	StallNanos uint64
	// CapToStability caps the credited horizon at the observed stability of
	// the load shape (the number of consecutive windows the same worker has
	// been hottest). A hot set that rotated one window ago earns a 1-window
	// horizon: if it is about to rotate again, chasing it is a losing trade.
	CapToStability bool
}

const (
	// horizonWindows is how many future sampling windows the projected
	// gain is credited for. A short horizon demands migrations that repay
	// quickly; an infinite one would accept any positive gain.
	horizonWindows = 8
	// nominalServiceNanos prices one record when the window carries no
	// measured service time (records counted but nanos zero — synthetic
	// workloads with free apply functions).
	nominalServiceNanos = 100
)

// DefaultCostModel returns the model with all defaults.
func DefaultCostModel() *CostModel {
	return &CostModel{}
}

// Decline reasons recorded in Decision.Reason.
const (
	ReasonNoMoves = "no-moves"
	ReasonNoGain  = "no-projected-gain"
	ReasonVolume  = "volume-exceeds-recovery"
)

// Verdict is one cost-model evaluation.
type Verdict struct {
	// Migrate reports whether the reconfiguration is worth issuing.
	Migrate bool
	// Reason is empty when Migrate, else one of the Reason constants.
	Reason string
	// VolumeRecs is the cumulative record count behind the moved bins (the
	// state-size proxy priced by MigrateNanosPerRec).
	VolumeRecs uint64
	// CostNanos and GainNanos are the two sides of the trade: one-time cost
	// vs gain credited over Horizon windows.
	CostNanos, GainNanos uint64
	// Horizon is the number of windows the gain was credited for (after any
	// stability cap).
	Horizon int
}

func (m *CostModel) migrateNanosPerRec() uint64 {
	if m.MigrateNanosPerRec == 0 {
		return 250
	}
	return m.MigrateNanosPerRec
}

func (m *CostModel) stallNanos() uint64 {
	if m.StallNanos == 0 {
		return 1_000_000
	}
	return m.StallNanos
}

// Evaluate judges moving from current to target given the last window's load
// and the cumulative snapshot (for state volume). stabilityWindows is the
// number of consecutive windows the same worker has been hottest, ≥ 1; it
// only matters when CapToStability is set.
func (m *CostModel) Evaluate(current, target Assignment, window, cumulative *core.LoadSnapshot, stabilityWindows int) Verdict {
	moved := false
	var volume uint64
	for b := range current {
		if current[b] != target[b] {
			moved = true
			volume += cumulative.BinRecs[b]
		}
	}
	if !moved {
		return Verdict{Reason: ReasonNoMoves}
	}

	// Project each worker's service time under both assignments. When the
	// window carries no measured service time, fall back to records at the
	// nominal rate so synthetic workloads still get a meaningful projection.
	perWindowGain := m.projectedGain(current, target, window)

	horizon := horizonWindows
	if m.CapToStability {
		if stabilityWindows < 1 {
			stabilityWindows = 1
		}
		if stabilityWindows < horizon {
			horizon = stabilityWindows
		}
	}
	v := Verdict{
		VolumeRecs: volume,
		CostNanos:  volume*m.migrateNanosPerRec() + m.stallNanos(),
		GainNanos:  perWindowGain * uint64(horizon),
		Horizon:    horizon,
	}
	switch {
	case perWindowGain == 0:
		v.Reason = ReasonNoGain
	case v.GainNanos <= v.CostNanos:
		v.Reason = ReasonVolume
	default:
		v.Migrate = true
	}
	return v
}

// projectedGain returns the per-window reduction of the hottest worker's
// service time if the window's traffic repeated under target instead of
// current (0 when target is no better).
func (m *CostModel) projectedGain(current, target Assignment, window *core.LoadSnapshot) uint64 {
	var curLoad, tgtLoad []uint64
	if window.TotalNanos() > 0 {
		curLoad = window.NanosUnder(current, nil)
		tgtLoad = window.NanosUnder(target, nil)
	} else {
		curLoad = window.RecsUnder(current, nil)
		tgtLoad = window.RecsUnder(target, nil)
		for i := range curLoad {
			curLoad[i] *= nominalServiceNanos
			tgtLoad[i] *= nominalServiceNanos
		}
	}
	curMax := maxOf(curLoad)
	tgtMax := maxOf(tgtLoad)
	if tgtMax >= curMax {
		return 0
	}
	return curMax - tgtMax
}

func maxOf(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
