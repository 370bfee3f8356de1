package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// MetricDef is one metric BENCHMARK.json names; Bound, on end-to-end
// metrics, is the share of the parent commit's median by which it may
// worsen before a change counts as a regression.
type MetricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// Spec is BENCHMARK.json: the one place the workload names, the metric
// tables and the run length are written down.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []MetricDef `json:"end_to_end"`
	PerLayer   []MetricDef `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json and checks that every workload it names is
// configured here.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if _, err := WorkloadByName(w.Name); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
	}
	return s, nil
}

// Workload configures one of the workloads BENCHMARK.json names (which also
// says why each was chosen). The rates are frozen here (BENCHMARK.json
// admits no extra keys): they were sized on the seed commit and must not
// follow the engine as it gets faster, or two commits would no longer be
// measured under the same load.
type Workload struct {
	Name string
	// Query is "keycount" (hash-count) or a NEXMark query name.
	Query string
	// Procs meshes of Workers workers each; Procs > 1 joins them over
	// loopback TCP inside the child.
	Procs, Workers int
	LogBins        int
	// LogKeys is log2 of the keycount key domain.
	LogKeys int
	// SatRate is the offered load of the sat phase in records per second,
	// at least twice the seed's capacity; PacedRate is the open-loop rate
	// of the paced phase, an eighth of it: well below the knee at which a
	// slower minute of the host adds an epoch to every latency.
	SatRate, PacedRate int
	// WarmEvents is the number of NEXMark events ingested before the clock
	// starts (keycount warms with one sweep of the key domain instead).
	WarmEvents int64
}

// Workloads is the benchmark's workload table, in report order.
var Workloads = []Workload{
	{
		Name:  "kc-inproc",
		Query: "keycount", Procs: 1, Workers: 2, LogBins: 8, LogKeys: 22,
		SatRate: 22_000_000, PacedRate: 1_000_000,
	},
	{
		Name:  "kc-cluster",
		Query: "keycount", Procs: 2, Workers: 1, LogBins: 8, LogKeys: 22,
		SatRate: 17_000_000, PacedRate: 1_000_000,
	},
	{
		Name:  "nx-q3-cluster",
		Query: "q3", Procs: 2, Workers: 1, LogBins: 8,
		SatRate: 16_000_000, PacedRate: 1_000_000, WarmEvents: 5_000_000,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Epoch is the logical-time granularity of every run.
const Epoch = time.Millisecond

// Shape is how one measured phase is laid out in time. The default shape
// follows from the phase length; -smoke shrinks it.
type Shape struct {
	// Duration of the injection.
	Duration time.Duration
	// A paced phase settles, runs undisturbed for Steady, and then
	// migrates: Migrations plans alternate initial -> imbalanced -> initial
	// in the strategy pattern F,F,A,A,..., each in a slot of its
	// strategy's length.
	Settle, Steady time.Duration
	Migrations     int
	// Slot is the time from one migration's start to the next one's, by
	// the strategy of the first: a fluid plan runs for hundreds of
	// milliseconds, an all-at-once one for tens.
	Slot map[string]time.Duration
	// Tail and Guard are the classifier's bands around a migration window
	// (see Classifier).
	Tail, Guard time.Duration
	// LogKeys and PacedRate override the workload's key domain and paced
	// rate when non-zero (-smoke).
	LogKeys, PacedRate int
}

// SmokeSeconds is the measured time of a -smoke run.
const SmokeSeconds = 6

// PacedShape lays a paced phase of length d out: half a second to settle,
// one second undisturbed, then as many groups of four migrations as fit with
// 0.9 s to spare at the end (a plan delayed by a stall of the host delays
// those after it, and one the phase ends before the end of spoils the
// phase).
func PacedShape(d time.Duration) Shape {
	s := Shape{
		Duration: d,
		Settle:   500 * time.Millisecond,
		Steady:   time.Second,
		Slot:     map[string]time.Duration{"fluid": 550 * time.Millisecond, "all-at-once": 350 * time.Millisecond},
		Tail:     100 * time.Millisecond,
		Guard:    100 * time.Millisecond,
	}
	group := 2*s.Slot["fluid"] + 2*s.Slot["all-at-once"]
	if room := d - s.Settle - s.Steady - 900*time.Millisecond; room >= group {
		s.Migrations = 4 * int(room/group)
	}
	return s
}

// Repeats is how many paced children an untraced run starts; the run
// reports the best child's value of every metric. The host this runs on
// slows down by up to half for seconds at a time, several times a minute: a
// child is short enough to fall between two such spells, and with six
// spread over the run one of them almost always does.
const Repeats = 6

// Budget splits a workload's measured time over its phases; an untraced
// run divides Paced again by Repeats.
type Budget struct {
	// Base is the untraced sat phase a traced run takes records_s from and
	// compares the traced one with.
	Base, Sat, Paced, Ladder time.Duration
}

// Split divides seconds of measuring over the phases of one workload run:
// untraced, all of it is paced (every end-to-end metric comes from the paced
// phase); traced, one sat phase each with and without tracing, one long
// paced phase, and a third for the ladder.
func Split(seconds int, traced bool) Budget {
	d := time.Duration(seconds) * time.Second
	if !traced {
		return Budget{Paced: d}
	}
	return Budget{Base: d / 15, Sat: d / 15, Paced: d * 8 / 15, Ladder: d / 3}
}

// ShapeOf lays a phase of length d out.
func ShapeOf(kind string, d time.Duration, smoke bool) Shape {
	var s Shape
	switch kind {
	case "sat":
		// Offered about twice the seed's capacity for d: at the seed about
		// half of that is injected before d is spent (see satWindow).
		s = Shape{Duration: d}
	case "paced":
		s = PacedShape(d)
	}
	if smoke {
		// 2^16 keys, a fifth of the load (so that a race-detector build
		// keeps up), and one migration of each strategy in each direction,
		// packed into whatever d is.
		s.LogKeys, s.PacedRate = 16, 200_000
		if kind == "paced" {
			s.Settle, s.Steady, s.Migrations = d/20, d/10, 4
			s.Tail, s.Guard = 10*time.Millisecond, 10*time.Millisecond
			s.Slot = map[string]time.Duration{"fluid": d / 4, "all-at-once": 2 * d / 25}
		}
	}
	return s
}
