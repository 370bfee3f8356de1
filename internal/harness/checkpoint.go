package harness

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/plan"
)

// CheckpointStat summarizes one checkpoint epoch across this process's
// workers.
type CheckpointStat struct {
	Epoch int64
	Bins  int     // bins drained (sum over workers)
	Bytes int64   // payload bytes written (sum over workers)
	Write float64 // max per-worker write seconds (workers write in parallel)
}

// CheckpointCollector aggregates core.CheckpointConfig.OnCheckpoint
// callbacks (which arrive per worker, on worker goroutines) into per-epoch
// stats for Result.Checkpoints.
type CheckpointCollector struct {
	mu    sync.Mutex
	stats map[int64]*CheckpointStat
}

// Note is the OnCheckpoint callback; install it with
// core.CheckpointConfig{OnCheckpoint: c.Note}.
func (c *CheckpointCollector) Note(epoch core.Time, worker, bins int, bytes int64, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats == nil {
		c.stats = make(map[int64]*CheckpointStat)
	}
	st := c.stats[int64(epoch)]
	if st == nil {
		st = &CheckpointStat{Epoch: int64(epoch)}
		c.stats[int64(epoch)] = st
	}
	st.Bins += bins
	st.Bytes += bytes
	if s := elapsed.Seconds(); s > st.Write {
		st.Write = s
	}
}

// Stats returns the collected checkpoints in epoch order.
func (c *CheckpointCollector) Stats() []CheckpointStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CheckpointStat, 0, len(c.stats))
	for _, st := range c.stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// checkpointPlan is a run's resolved checkpoint/recovery configuration —
// Launch's handling of Config.{CheckpointDir,CheckpointEvery,Recover}.
// Build it with planCheckpoints; the zero value (startEpoch 1, everything
// else disabled) is a fresh, non-checkpointing run.
type checkpointPlan struct {
	// every is the checkpoint cadence in epochs (Options.CheckpointEvery;
	// 0 disables).
	every int64
	// startEpoch is the first epoch to drive (Options.StartEpoch): the
	// restored checkpoint's epoch when recovering, 1 otherwise.
	startEpoch int64
	// config is the operator-facing checkpoint configuration (nil when
	// checkpointing is disabled), wired to this plan's collector.
	config *core.CheckpointConfig
	// restores maps operator names to their loaded checkpoints (nil when
	// not recovering).
	restores map[string]*core.Restore

	collector      *CheckpointCollector
	recovered      bool
	restoreSeconds float64
}

// planCheckpoints validates a run's checkpoint flags and, when recovering,
// loads the newest complete checkpoint of every operator named in ops,
// refusing one that holds no state for some of them. It returns the plan
// and the run duration to use — trimmed to the schedule remaining after the
// restore epoch, so a recovered run ends at the same epoch the
// uninterrupted run would have. workload prefixes errors; Launch checks
// that the dataflow has migrateable state at all.
func planCheckpoints(workload string, ops []string, dir string, every time.Duration, recover bool,
	totalWorkers, firstWorker, workers int,
	epochEvery, duration time.Duration) (*checkpointPlan, time.Duration, error) {

	p := &checkpointPlan{startEpoch: 1}
	if dir == "" && !recover {
		return p, duration, nil
	}
	if recover {
		if dir == "" {
			return nil, 0, fmt.Errorf("%s: -recover needs -checkpoint-dir", workload)
		}
		loadStart := time.Now()
		epoch, held, ok, err := core.LatestCheckpoint(dir, totalWorkers)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("%s: no complete checkpoint under %s", workload, dir)
		}
		p.restores = make(map[string]*core.Restore, len(ops))
		for _, op := range ops {
			if !slices.Contains(held, op) {
				return nil, 0, fmt.Errorf("%s: the checkpoint under %s holds no state for operator %q (it has %v): was it written by another dataflow?", workload, dir, op, held)
			}
			r, err := core.LoadRestore(dir, op, epoch, totalWorkers, firstWorker, workers, core.TransferBinary.Name())
			if err != nil {
				return nil, 0, err
			}
			p.restores[op] = r
		}
		p.startEpoch = int64(epoch)
		p.recovered = true
		p.restoreSeconds = time.Since(loadStart).Seconds()
		remaining := duration - time.Duration(p.startEpoch-1)*epochEvery
		if remaining <= 0 {
			return nil, 0, fmt.Errorf("%s: checkpoint epoch %d is past the run's %v duration", workload, p.startEpoch, duration)
		}
		duration = remaining
	}
	if dir != "" {
		p.collector = &CheckpointCollector{}
		p.config = &core.CheckpointConfig{Dir: dir, OnCheckpoint: p.collector.Note}
		if every <= 0 {
			every = time.Second
		}
		if p.every = int64(every / epochEvery); p.every < 1 {
			p.every = 1
		}
	}
	return p, duration, nil
}

// initialAssignment returns the bin assignment a recovering run's
// controllers must start from, or nil for a fresh run. Every operator of a
// dataflow shares one control stream, so their checkpointed assignments
// are identical and any one of them serves.
func (p *checkpointPlan) initialAssignment() plan.Assignment {
	for _, r := range p.restores {
		return append(plan.Assignment(nil), r.Assignment...)
	}
	return nil
}

// filterMigrations drops scheduled migrations whose epoch precedes the
// restore point: they are already reflected in the restored assignment
// (and control commands are not replayed); outputs do not depend on them
// either way (Property 1).
func (p *checkpointPlan) filterMigrations(migrations []Migration) []Migration {
	if p.startEpoch <= 1 {
		return migrations
	}
	kept := migrations[:0]
	for _, m := range migrations {
		if m.AtEpoch > p.startEpoch {
			kept = append(kept, m)
		}
	}
	return kept
}

// finish backfills the plan's measurements into a run result.
func (p *checkpointPlan) finish(res *Result) {
	if p.collector != nil {
		res.Checkpoints = p.collector.Stats()
	}
	if p.recovered {
		res.RestoreEpoch = p.startEpoch
		res.RestoreSeconds = p.restoreSeconds
	}
}
