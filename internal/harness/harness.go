// Package harness runs workloads the way the paper's evaluation does: an
// open-loop source supplies input at a specified rate even if the system
// becomes unresponsive (e.g. during a migration), a prober measures the lag
// of the output frontier behind each epoch's injection deadline, and
// per-window latency distributions are collected every reporting interval.
//
// Launch is the one runner every workload goes through. A workload hands
// it a Dataflow — its per-worker build function, generator, bin function
// and checkpointable operator names — and Launch does the rest: defaults
// and validation, the checkpoint plan, the mesh, the meter and the control
// plane, the inputs and the probe, the Section 5 migration schedule, and
// the drive: Run's one loop, on a fixed roster or, under dynamic
// membership, on a roster that changes.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/metrics"
	"megaphone/internal/plan"
)

// Options configures an open-loop run. Logical time is the epoch index:
// epoch e's records are injected at wall time start + e*EpochEvery.
type Options struct {
	// Rate is the total offered load in records per second.
	Rate int
	// EpochEvery is the epoch granularity (default 1ms): inputs advance
	// their frontier once per epoch.
	EpochEvery time.Duration
	// Duration is the total run length.
	Duration time.Duration
	// ReportEvery is the latency timeline window (default 250ms, as in the
	// paper).
	ReportEvery time.Duration
	// SampleMemory enables heap sampling into the memory series.
	SampleMemory bool
	// Migrations schedules plans to start at given epochs; each waits for
	// the previous to complete.
	Migrations []Migration
	// TotalInputs and FirstInput describe this process's share of a
	// multi-process run: the cluster has TotalInputs data inputs overall
	// and this process drives the ones at global indexes [FirstInput,
	// FirstInput+len(inputs)). Rate is split across TotalInputs and the
	// generator sees global worker indexes, so the cluster-wide input
	// stream is identical to a single-process run with TotalInputs
	// workers. Zero TotalInputs means len(inputs) (single process).
	TotalInputs int
	FirstInput  int
	// CheckpointEvery issues a checkpoint command on the control stream at
	// every epoch divisible by it (0 disables). The cadence is a pure
	// function of the epoch, so every process of a cluster issues the same
	// commands and the operators merge them into one checkpoint per epoch.
	CheckpointEvery int64
	// StartEpoch is the first epoch driven (default 1). Recovery runs set
	// it to the restored checkpoint's epoch: the generator re-produces
	// epochs from there, which together with the restored state yields the
	// same outputs an uninterrupted run would have emitted from that epoch
	// on. No checkpoint is issued at StartEpoch itself (it would overwrite
	// the checkpoint just restored from).
	StartEpoch int64
}

// Migration schedules a plan to start at a given epoch.
type Migration struct {
	AtEpoch int64
	Plan    plan.Plan
}

// Driver paces migrations and advances the control epochs: the harness
// calls Tick once per epoch and consults Idle/Start/Span for scheduled
// migrations; Checkpoint injects a checkpoint command at the current epoch
// (before Tick advances past it). Both plan.Controller (scripted plans) and
// plan.AutoController (policy-driven plans) satisfy it.
type Driver interface {
	Tick(now core.Time)
	Idle() bool
	Start(p plan.Plan)
	Span() (start, end core.Time, ok bool)
	Checkpoint(now core.Time)
	Close()
}

// Result carries a run's measurements.
type Result struct {
	// Timeline is the per-window latency series (max/p99/p50/p25).
	Timeline *metrics.Timeline
	// Hist is the per-epoch latency distribution over the whole run.
	Hist *metrics.Histogram
	// Memory is the sampled heap size in bytes over time.
	Memory *metrics.Series
	// MigrationSpans records, for each scheduled migration, the wall-clock
	// seconds (relative to run start) at which its plan started and ended
	// and the maximum latency (ms) observed while it ran.
	MigrationSpans []Span
	// Epochs is the last epoch driven (the count, except in recovery runs,
	// which start at Options.StartEpoch rather than 1).
	Epochs int64
	// Records is the number of records injected.
	Records int64
	// Elapsed is the wall-clock seconds from injection start until the
	// dataflow fully drained. When the system keeps up with the offered
	// rate this is ~Duration; when it falls behind, Records/Elapsed is the
	// system's actual sustained throughput.
	Elapsed float64
	// Decisions lists the decisions an AutoController took during the run —
	// issued reconfigurations and cost-model declines alike, including, in
	// cluster runs, decisions mirrored from the elected controller process
	// (filled in by Launch; empty for scripted migrations).
	Decisions []plan.Decision
	// Load is the final cumulative load snapshot when the run was metered
	// (nil otherwise).
	Load *core.LoadSnapshot
	// Checkpoints lists the completed checkpoints of a checkpointing run
	// (filled in by Launch from the operator's OnCheckpoint
	// instrumentation; empty otherwise).
	Checkpoints []CheckpointStat
	// RestoreEpoch and RestoreSeconds describe a recovery run: the epoch
	// the run resumed from and the wall-clock cost of loading and
	// verifying the checkpoint (both zero for fresh runs).
	RestoreEpoch   int64
	RestoreSeconds float64
}

// FprintAdaptive writes the decision log and per-worker load report of an
// auto-controlled run — the `# decision` / `# applied records per worker`
// lines shared by every binary. It is a no-op for unmetered runs.
func (r *Result) FprintAdaptive(w io.Writer) {
	for i, d := range r.Decisions {
		if d.Declined {
			fmt.Fprintf(w, "# decision %d: epoch=%d policy=%s DECLINED reason=%s moves=%d window-records=%d volume=%d gain=%d origin=%d\n",
				i+1, int64(d.Epoch), d.Policy, d.Reason, d.Moves, d.WindowRecs, d.Volume, d.Gain, d.Origin)
			continue
		}
		fmt.Fprintf(w, "# decision %d: epoch=%d policy=%s moves=%d steps=%d window-records=%d origin=%d\n",
			i+1, int64(d.Epoch), d.Policy, d.Moves, d.Steps, d.WindowRecs, d.Origin)
	}
	if r.Load != nil {
		total := r.Load.TotalRecs()
		fmt.Fprintf(w, "# applied records per worker:")
		for wi, recs := range r.Load.WorkerRecs {
			share := 0.0
			if total > 0 {
				share = 100 * float64(recs) / float64(total)
			}
			fmt.Fprintf(w, " w%d=%d (%.1f%%)", wi, recs, share)
		}
		fmt.Fprintln(w)
	}
}

// Fprint writes the result lines every workload binary prints: the latency
// timeline, one line per migration, the decision log and load report, the
// restored checkpoint, every checkpoint taken, and the records with their
// achieved throughput. Scripts and tests grep the "# recovered from
// checkpoint epoch", "# decision", "# checkpoint epoch=" and "# records="
// prefixes.
func (r *Result) Fprint(w io.Writer) {
	r.Timeline.Fprint(w)
	for i, sp := range r.MigrationSpans {
		fmt.Fprintf(w, "# migration %d: start=%.2fs end=%.2fs duration=%.2fs max-latency=%.2fms\n",
			i+1, sp.Start, sp.End, sp.Duration, sp.MaxLatency)
	}
	r.FprintAdaptive(w)
	if r.RestoreEpoch > 0 {
		fmt.Fprintf(w, "# recovered from checkpoint epoch %d (load %.3fs)\n", r.RestoreEpoch, r.RestoreSeconds)
	}
	for _, ck := range r.Checkpoints {
		fmt.Fprintf(w, "# checkpoint epoch=%d bins=%d bytes=%d write=%.1fms\n",
			ck.Epoch, ck.Bins, ck.Bytes, ck.Write*1e3)
	}
	fmt.Fprintf(w, "# records=%d epochs=%d overall: %s\n", r.Records, r.Epochs, r.Hist.Summary())
	if r.Elapsed > 0 {
		// Achieved throughput: when the system keeps up this is ~rate; when
		// it falls behind, records/elapsed is the sustained capacity.
		fmt.Fprintf(w, "# throughput records=%d elapsed=%.3fs records_s=%.0f\n",
			r.Records, r.Elapsed, float64(r.Records)/r.Elapsed)
	}
}

// Span is one migration's execution window.
type Span struct {
	Start, End float64 // seconds since run start
	MaxLatency float64 // ms, max observed in [Start, End]
	Duration   float64 // seconds
}

// Gen produces worker w's records for epoch e. The harness splits Rate
// evenly across workers; n is the record budget for this call.
type Gen[T any] func(w int, epoch int64, n int) []T

// Run drives the execution open-loop and returns its measurements.
//
// inputs are the per-worker data handles; ctl is the migration controller
// (its Tick both paces plans and advances the control epochs); probe
// observes the dataflow output.
func Run[T any](
	exec *dataflow.Execution,
	inputs []*dataflow.InputHandle[T],
	ctl Driver,
	probe *dataflow.Probe,
	gen Gen[T],
	opts Options,
) Result {
	res, _ := drive(exec, inputs, ctl, probe, gen, opts, nil)
	return res
}

// roster is what a run whose processes change adds to Run's loop (dynamic
// membership, membership.go). The nil roster is the fixed one: this
// process drives its own inputs from the start epoch to the end.
type roster interface {
	// enter opens this process's inputs at its first epoch, at or after
	// start, and returns it; every wait the roster makes goes through sl.
	// With an error, the process has left the run instead, as after exit.
	enter(start int64, sl *sleeper) (int64, error)
	// exiting reports, before epoch e, that this process leaves the run
	// instead; exit then takes it out in place of closing its inputs.
	exiting(e int64) bool
	exit()
	// step commits the transition due at epoch t, if any, and returns the
	// input slots this process drives at t and the records it re-injected.
	step(t core.Time) (slots []int, replayed int64)
}

// share is global input g's part of perEpoch records split over total.
func share(perEpoch, total int64, g int) int {
	n := perEpoch / total
	if int64(g) < perEpoch%total {
		n++
	}
	return int(n)
}

// awaitFrontier waits until the output frontier reaches t, the output is
// complete, or the transport died.
func awaitFrontier(exec *dataflow.Execution, probe *dataflow.Probe, sl *sleeper, t int64) {
	for {
		if f := probe.Frontier(); f == core.None || int64(f) >= t || exec.Err() != nil {
			return
		}
		sl.sleep(50 * time.Microsecond)
	}
}

// drive is Run's loop over a roster (nil: the fixed one). Its error is the
// one that kept this process from entering the run.
func drive[T any](exec *dataflow.Execution, inputs []*dataflow.InputHandle[T], ctl Driver,
	probe *dataflow.Probe, gen Gen[T], opts Options, r roster) (Result, error) {
	if opts.EpochEvery <= 0 {
		opts.EpochEvery = time.Millisecond
	}
	if opts.ReportEvery <= 0 {
		opts.ReportEvery = 250 * time.Millisecond
	}
	totalEpochs := int64(opts.Duration / opts.EpochEvery)
	perEpoch := int64(float64(opts.Rate) * opts.EpochEvery.Seconds())
	workers := len(inputs)
	totalInputs := int64(opts.TotalInputs)
	if totalInputs <= 0 {
		totalInputs = int64(workers)
	}
	startEpoch := opts.StartEpoch
	if startEpoch <= 0 {
		startEpoch = 1
	}
	endEpoch := startEpoch + totalEpochs - 1

	res := Result{Timeline: metrics.NewTimeline(), Hist: &metrics.Histogram{}, Memory: &metrics.Series{Name: "heap-bytes"}}

	// Cluster processes reach Run staggered by their own join and preload
	// times, and injection is paced off this process's wall clock — so
	// without alignment, one late process holds every epoch's completion a
	// constant offset behind an early process's deadlines for the whole
	// run. Align on cluster-wide readiness: open the data inputs at the
	// start epoch and tick the driver once at the preceding epoch (which
	// only advances the control stream to the start epoch too), or let the
	// roster enter, and wait for the output frontier to confirm every
	// process has done the same. An execution whose transport died halted
	// short of the start epoch and never confirms it. Every wait of the
	// drive goes through a sleeper: with time.Sleep each could last a whole
	// millisecond (see sleeper).
	sl := newSleeper()
	defer sl.close()
	if r == nil {
		for _, in := range inputs {
			in.AdvanceTo(core.Time(startEpoch))
		}
		ctl.Tick(core.Time(startEpoch - 1))
	} else {
		var err error
		if startEpoch, err = r.enter(startEpoch, sl); err != nil {
			exec.Wait()
			return res, err
		}
	}
	awaitFrontier(exec, probe, sl, startEpoch)

	start := time.Now()
	deadline := func(e int64) time.Time {
		return start.Add(time.Duration(e-startEpoch+1) * opts.EpochEvery)
	}

	// Prober: watch the output frontier; when it passes epoch e, the
	// latency of e is now - deadline(e). It measures no epoch past driven,
	// the last one whose records went in, so a process that leaves the run
	// early stops measuring where it stopped driving. Until it is done, it
	// alone touches res's latency and memory series.
	var driven atomic.Int64
	driven.Store(startEpoch - 1)
	var stopProbe atomic.Bool
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		lastReported := startEpoch - 1 // epochs <= lastReported measured
		nextFlush := start.Add(opts.ReportEvery)
		nextMem := start
		for {
			// The pass after the stop is the last: the execution has
			// drained, or halted short of the end (its transport died or
			// the process left the run), and nothing more completes.
			stopping := stopProbe.Load()
			now := time.Now()
			f := probe.Frontier()
			passed := driven.Load()
			if f != core.None && int64(f)-1 < passed {
				passed = int64(f) - 1 // epochs strictly below the frontier are complete
			}
			for e := lastReported + 1; e <= passed; e++ {
				lat := now.Sub(deadline(e)).Nanoseconds()
				res.Timeline.Record(lat)
				res.Hist.Record(lat)
			}
			// The frontier may transiently regress (operators can acquire
			// earlier capabilities while covered by their input frontier);
			// completed epochs stay completed.
			if passed > lastReported {
				lastReported = passed
			}

			if !now.Before(nextFlush) {
				res.Timeline.Flush(now.Sub(start).Seconds())
				nextFlush = nextFlush.Add(opts.ReportEvery)
			}
			if opts.SampleMemory && !now.Before(nextMem) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				res.Memory.Add(now.Sub(start).Seconds(), float64(ms.HeapAlloc))
				nextMem = now.Add(100 * time.Millisecond)
			}
			if stopping {
				return
			}
			// Not a sleeper: in an idle process this poll stretches to
			// about 1 ms, but a timerfd wake every 100 µs cost 5 % more
			// CPU per record for a 2-process keycount run on a 2-vCPU VM.
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// migIdx is the scheduled migration due next; started, whether its
	// plan is running. A plan that completed is recorded by addSpan.
	migIdx, started := 0, false
	addSpan := func() {
		if s, eEnd, ok := ctl.Span(); ok {
			res.MigrationSpans = append(res.MigrationSpans, Span{
				Start: float64(s) * opts.EpochEvery.Seconds(),
				End:   float64(eEnd) * opts.EpochEvery.Seconds(),
			})
		}
	}
	own := make([]int, workers) // the fixed roster's slots
	for w := range own {
		own[w] = opts.FirstInput + w
	}

	// Open-loop injection: epoch e's records go in at deadline(e) — or as
	// soon as possible if we are running behind, without ever skipping. An
	// execution whose transport died completes nothing more, so injection
	// stops there and the run shuts down with the error.
	exited := false
	for e := startEpoch; e <= endEpoch; e++ {
		if r != nil && r.exiting(e) {
			exited = true
			break
		}
		if d := time.Until(deadline(e)); d > 0 {
			sl.sleep(d)
		}
		if exec.Err() != nil {
			break
		}
		t := core.Time(e)
		slots := own
		if r != nil {
			var replayed int64
			slots, replayed = r.step(t)
			res.Records += replayed
		}
		for _, g := range slots {
			n := share(perEpoch, totalInputs, g)
			if n == 0 {
				continue
			}
			w := g - opts.FirstInput
			if w < 0 || w >= workers {
				w = g % workers // an absent process's slot
			}
			batch := gen(g, e, n)
			inputs[w].SendBatchAt(t, batch)
			res.Records += int64(len(batch))
		}
		if opts.CheckpointEvery > 0 && e%opts.CheckpointEvery == 0 && e != startEpoch {
			ctl.Checkpoint(t)
		}
		if migIdx < len(opts.Migrations) && e >= opts.Migrations[migIdx].AtEpoch && ctl.Idle() {
			if !started {
				ctl.Start(opts.Migrations[migIdx].Plan)
				started = true
			} else { // the plan has completed (controller idle again)
				addSpan()
				migIdx, started = migIdx+1, false
			}
		}
		res.Epochs = e
		driven.Store(e)
		ctl.Tick(t)
		for _, in := range inputs {
			in.AdvanceTo(t + 1)
		}
	}

	// Shut down: close inputs (or leave the run), drain, stop measurement.
	if exited {
		r.exit()
	} else {
		ctl.Close()
		for _, in := range inputs {
			in.Close()
		}
	}
	exec.Wait()
	res.Elapsed = time.Since(start).Seconds()
	stopProbe.Store(true)
	<-probeDone
	res.Timeline.Flush(time.Since(start).Seconds())

	// A plan that completed only while draining is captured here.
	if started {
		addSpan()
	}
	for i := range res.MigrationSpans {
		sp := &res.MigrationSpans[i]
		sp.MaxLatency = res.Timeline.MaxOver(sp.Start, sp.End+0.5)
		sp.Duration = sp.End - sp.Start
	}
	return res, nil
}
