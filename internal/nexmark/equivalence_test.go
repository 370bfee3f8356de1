package nexmark_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/nexmark"
	"megaphone/internal/operators"
	"megaphone/internal/plan"
)

// collectQuery runs one query over a fixed deterministic event prefix,
// optionally migrating mid-stream, and returns the multiset of outputs
// rendered as strings. Both implementations consume identical input, so
// Property 1 (correctness) requires identical output multisets.
func collectQuery(t *testing.T, q string, impl nexmark.Impl, migrate bool) map[string]int {
	t.Helper()
	const (
		workers  = 2
		epochs   = 200
		perEpoch = 100
		logBins  = 4
	)
	var mu sync.Mutex
	out := make(map[string]int)

	params := nexmark.Params{Impl: impl, LogBins: logBins, WindowEpochs: 40}
	gen := nexmark.NewGen(nexmark.GenConfig{ActiveAuctions: 50, ActivePeople: 50, AuctionEpochs: 25})

	exec := dataflow.NewExecution(dataflow.Config{Workers: workers})
	var dataIns []*dataflow.InputHandle[nexmark.Event]
	var ctlIns []*dataflow.InputHandle[core.Move]
	var probe *dataflow.Probe
	exec.Build(func(w *dataflow.Worker) {
		ctl, ctlStream := dataflow.NewInput[core.Move](w, "control")
		ctlIns = append(ctlIns, ctl)
		in, events := dataflow.NewInput[nexmark.Event](w, "events")
		dataIns = append(dataIns, in)
		// Build the query and capture its outputs via an Inspect shim: we
		// re-build by name but wrap the stream in a sink before probing.
		p := buildCollected(w, q, params, ctlStream, events, func(s string) {
			mu.Lock()
			out[s]++
			mu.Unlock()
		})
		if w.Index() == 0 {
			probe = p
		}
	})
	exec.Start()
	ctl := plan.NewController(ctlIns, probe)

	var mig plan.Plan
	if migrate {
		mig = plan.Build(plan.Batched, plan.Initial(1<<logBins, workers),
			plan.Rebalance(1<<logBins, []int{1}), 3)
	}
	for e := core.Time(1); e <= epochs; e++ {
		for w := 0; w < workers; w++ {
			batch := gen.Batch(w, workers, e, perEpoch, perEpoch/workers)
			dataIns[w].SendBatchAt(e, batch)
		}
		if migrate && e == epochs/2 {
			ctl.Start(mig)
		}
		ctl.Tick(e)
		for _, h := range dataIns {
			h.AdvanceTo(e + 1)
		}
	}
	// Let any in-flight plan finish before closing.
	for e := core.Time(epochs + 1); !ctl.Idle(); e++ {
		ctl.Tick(e)
		for _, h := range dataIns {
			h.AdvanceTo(e + 1)
		}
	}
	ctl.Close()
	for _, h := range dataIns {
		h.Close()
	}
	exec.Wait()
	return out
}

// buildCollected mirrors nexmark.BuildQuery but funnels outputs to collect.
// Queries whose record-level outputs depend on within-timestamp application
// order (running averages in q4/q6) are projected to an order-insensitive
// view: the multiset of aggregation keys, i.e. one entry per closed auction,
// which still exercises expiry timing, winning-bid selection and routing.
func buildCollected(w *dataflow.Worker, q string, p nexmark.Params, ctl dataflow.Stream[core.Move], events dataflow.Stream[nexmark.Event], collect func(string)) *dataflow.Probe {
	switch q {
	case "q1":
		return sinkAndProbe(w, nexmark.BuildQ1(w, p, ctl, events), collect, nil)
	case "q2":
		return sinkAndProbe(w, nexmark.BuildQ2(w, p, ctl, events), collect, nil)
	case "q3":
		return sinkAndProbe(w, nexmark.BuildQ3(w, p, ctl, events), collect, nil)
	case "q4":
		return sinkAndProbe(w, nexmark.BuildQ4(w, p, ctl, events), collect,
			func(o nexmark.Q4Out) string { return fmt.Sprintf("category=%d", o.Category) })
	case "q6":
		return sinkAndProbe(w, nexmark.BuildQ6(w, p, ctl, events), collect,
			func(o nexmark.Q6Out) string { return fmt.Sprintf("seller=%d", o.Seller) })
	case "q7":
		return sinkAndProbe(w, nexmark.BuildQ7(w, p, ctl, events), collect, nil)
	case "q8":
		return sinkAndProbe(w, nexmark.BuildQ8(w, p, ctl, events), collect, nil)
	default:
		panic("unsupported query in equivalence test: " + q)
	}
}

func sinkAndProbe[T any](w *dataflow.Worker, s dataflow.Stream[T], collect func(string), format func(T) string) *dataflow.Probe {
	if format == nil {
		format = func(r T) string { return fmt.Sprintf("%+v", r) }
	}
	operators.Sink(w, "collect", s, func(_ core.Time, data []T) {
		for _, r := range data {
			collect(format(r))
		}
	})
	return dataflow.NewProbe(w, s)
}

// TestImplementationsAgree: for every deterministic query, the native and
// Megaphone implementations — the latter with a mid-stream migration —
// produce identical output multisets (Property 1 at system scale).
func TestImplementationsAgree(t *testing.T) {
	// Q5 is excluded: its native and megaphone variants report windows on
	// slightly different (both valid) activity conditions. Q8 used to be
	// compared with a tolerance because its join was order-sensitive for a
	// person and an auction arriving in the same epoch and at the expiry
	// boundary; both implementations now apply a canonical within-epoch
	// order (expirations, then registrations, then joins — see q8.go), so
	// every query compares exactly.
	for _, q := range []string{"q1", "q2", "q3", "q4", "q6", "q7", "q8"} {
		q := q
		t.Run(q, func(t *testing.T) {
			t.Parallel()
			native := collectQuery(t, q, nexmark.Native, false)
			mega := collectQuery(t, q, nexmark.Megaphone, true)
			diffMultisets(t, q, native, mega)
		})
	}
}

func diffMultisets(t *testing.T, q string, a, b map[string]int) {
	t.Helper()
	var keys []string
	total := 0
	for k, c := range a {
		keys = append(keys, k)
		total += c
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := 0
	var examples []string
	for _, k := range keys {
		if a[k] != b[k] {
			bad++
			if len(examples) < 5 {
				examples = append(examples, fmt.Sprintf("%q native=%d megaphone=%d", k, a[k], b[k]))
			}
		}
	}
	if bad > 0 {
		for _, e := range examples {
			t.Errorf("%s: output %s", q, e)
		}
		t.Errorf("%s: %d of %d outputs differ", q, bad, total)
	}
	if len(a) == 0 {
		t.Errorf("%s: native produced no output", q)
	}
}
