package benchkit

import (
	"testing"
	"time"
)

// TestSmokePhases runs the sat and the paced phase of every workload at
// -smoke size in this process: every workload stays wired, its outputs are
// checked, and every end-to-end metric is produced.
func TestSmokePhases(t *testing.T) {
	spec := loadSpec(t)
	paced := Split(SmokeSeconds, false).Paced / Repeats
	for _, wl := range Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			seen := map[string]float64{}
			for _, kind := range []string{"sat", "paced"} {
				d := paced
				if kind == "sat" {
					d /= 4
				}
				res := RunPhase(Phase{Workload: wl, Kind: kind, Seed: 7, Shape: ShapeOf(kind, d, true), Origin: time.Now()})
				if res.Failed != 0 || len(res.Errors) != 0 {
					t.Fatalf("%s: %d operations failed: %v", kind, res.Failed, res.Errors)
				}
				if res.Attempted == 0 {
					t.Fatalf("%s: nothing was injected", kind)
				}
				for k, v := range res.Metrics {
					seen[k] = v // the paced phase's value where both report one
				}
			}
			for _, d := range spec.EndToEnd {
				if v, ok := seen[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v)
				}
			}
			if seen["core.bins_moved"] <= 0 && wl.Query == "keycount" {
				t.Errorf("no bins moved")
			}
			if (seen["mesh.frames_epoch"] > 0) != (wl.Procs > 1) {
				t.Errorf("mesh.frames_epoch = %v on a workload of %d processes", seen["mesh.frames_epoch"], wl.Procs)
			}
		})
	}
}

// TestTracedPhaseRecordsTheSpanTree checks the traced run's spans: one
// root, the set-up spans, and per epoch gen, inject and tick under an epoch
// span.
func TestTracedPhaseRecordsTheSpanTree(t *testing.T) {
	wl, err := WorkloadByName("kc-cluster")
	if err != nil {
		t.Fatal(err)
	}
	d := Split(SmokeSeconds, false).Paced / Repeats
	res := RunPhase(Phase{Workload: wl, Kind: "paced", Seed: 3, Shape: ShapeOf("paced", d, true), Trace: true, Origin: time.Now()})
	if res.Failed != 0 {
		t.Fatalf("%d operations failed: %v", res.Failed, res.Errors)
	}
	tot := Totals(res.Spans)
	epochs := int(d / Epoch)
	for name, want := range map[string]int{"run": 1, "setup.join": 1, "setup.build": 1, "setup.warm": 1, "drain": 1,
		"epoch": epochs, "gen": epochs, "inject": epochs, "tick": epochs, "migration": 4} {
		if got := tot[name].Count; got != want {
			t.Errorf("%d %q spans, want %d", got, name, want)
		}
	}
	for i, sp := range res.Spans {
		if sp.End < sp.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, sp.Name)
		}
		if sp.Name == "gen" && res.Spans[sp.Parent].Name != "epoch" {
			t.Fatalf("gen span %d hangs under %q", i, res.Spans[sp.Parent].Name)
		}
	}
	if res.Metrics["mesh.wire_bytes_rec"] <= 0 || res.Metrics["core.mig_mb_s.all-at-once"] <= 0 {
		t.Errorf("the traced run's counters are missing: %v", res.Metrics)
	}
}

// TestEveryWorkloadIsInBenchmarkJSON: a workload configured here and not
// named there would run under -smoke and never be measured.
func TestEveryWorkloadIsInBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, %d are configured", len(spec.Workloads), len(Workloads))
	}
}

func loadSpec(t *testing.T) Spec {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
