package keycount

import (
	"fmt"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/plan"
)

// RunConfig configures a complete open-loop key-count run.
type RunConfig struct {
	harness.Config
	harness.Extras
	Params
	// Workload selects the key distribution (zero value = the paper's
	// uniform draw).
	Workload harness.Workload
	// Sink, when non-nil, receives one "key:count" line per output record,
	// for output-equivalence checks across runs. It is called from worker
	// goroutines and must be safe for concurrent use.
	Sink func(line string)
}

// Run executes the benchmark and returns its measurements. In a cluster
// run the returned measurements are this process's local view (its own
// injected records and its local probe's latency observations).
func Run(cfg RunConfig) (harness.Result, error) {
	if err := cfg.Params.validate(); err != nil {
		return harness.Result{}, err
	}
	var ops []string
	if op := cfg.OpName(); op != "" {
		ops = []string{op}
	}
	return harness.Launch(cfg.Config, cfg.Extras, harness.Dataflow[uint64]{
		Name:    "keycount",
		LogBins: cfg.LogBins,
		Ops:     ops,
		Parts:   cfg.parts,
	})
}

// parts builds the key-count dataflow, its key generator and its bin
// function for a resolved run.
func (cfg RunConfig) parts(env harness.Env) harness.Parts[uint64] {
	p := cfg.Params
	p.Checkpoint, p.Restore, p.Meter = env.Checkpoint, env.Restores[p.OpName()], env.Meter
	handles := &Handles{
		Hash: &core.Handle[uint64, HashState, Out]{},
		Key:  &core.Handle[uint64, ArrayState, Out]{},
	}
	domain, workload, sink := uint64(p.Domain), cfg.Workload, cfg.Sink
	parts := harness.Parts[uint64]{
		Build: func(w *dataflow.Worker, ctl dataflow.Stream[core.Move], data dataflow.Stream[uint64]) *dataflow.Probe {
			out := Build(w, p, ctl, data, handles)
			if sink != nil {
				attachSink(w, out, sink)
			}
			return dataflow.NewProbe(w, out)
		},
		Gen: func(w int, epoch int64, n int) []uint64 {
			out := make([]uint64, n)
			workload.Fill(out, domain, w, epoch)
			return out
		},
	}
	if p.Preload {
		parts.Preload = func(a plan.Assignment) { PreloadAssigned(p, a, handles, env.FirstWorker, env.Workers) }
	}
	var hash func(uint64) uint64
	switch p.Variant {
	case HashCount:
		hash = core.Mix64
	case KeyCount:
		hash = denseHasher(p.Domain)
	}
	if hash != nil {
		parts.BinOf = func(k uint64) int { return core.BinOf(hash(k), p.LogBins) }
	}
	return parts
}

// attachSink adds a per-worker sink operator that renders every output
// record as a line. Sinks are only attached when requested, so the default
// dataflow is unchanged.
func attachSink(w *dataflow.Worker, out dataflow.Stream[Out], sink func(string)) {
	b := w.NewOp("out-sink", 0)
	dataflow.Connect(b, out, dataflow.Pipeline[Out]{})
	b.Build(func(c *dataflow.OpCtx) {
		dataflow.ForEachBatch(c, 0, func(t core.Time, data []Out) {
			for _, o := range data {
				sink(fmt.Sprintf("%d:%d", o.Key, o.Count))
			}
		})
	})
}

// validate rejects sizes a run cannot honour: a bin count outside
// 2^1..2^MaxLogBins, an empty key domain, and, for the variants that index
// keys densely, a domain that is not a power of two.
func (p Params) validate() error {
	if p.LogBins < 1 || p.LogBins > core.MaxLogBins {
		return fmt.Errorf("keycount: log2 bin count %d is outside 1..%d", p.LogBins, core.MaxLogBins)
	}
	if p.Domain < 1 {
		return fmt.Errorf("keycount: key domain %d must hold at least one key", p.Domain)
	}
	if (p.Variant == KeyCount || p.Variant == NativeKey) && p.Domain&(p.Domain-1) != 0 {
		return fmt.Errorf("keycount: the %v variant needs a power-of-two key domain, not %d", p.Variant, p.Domain)
	}
	return nil
}
