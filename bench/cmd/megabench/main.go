// Command megabench is the repository's end-to-end benchmark: the
// workloads BENCHMARK.json names, each measured in paced (and, traced, in
// saturating) phases that run in child processes of their own, over a ladder
// of per-layer rungs. See ../../README.md.
//
//	megabench -seed N                         all workloads, every end-to-end metric
//	megabench -workload W -seed N -seconds S  one workload (the driver's form)
//	megabench -workload W -trace 1            the traced run and the ladder: per-layer metrics
//	megabench -layers                         the ladder alone
//	megabench -calibrate N                    N full sets, spread of every metric against its bound
//	megabench -smoke                          every workload wired, in seconds (go test runs this)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"megaphone/bench/benchkit"
)

var processStart = time.Now()

// spec is BENCHMARK.json; a child does not read it.
var spec benchkit.Spec

type options struct {
	spec      string
	workload  string
	seed      uint64
	seconds   int
	trace     int
	outDir    string
	smoke     bool
	layers    bool
	calibrate int

	child   bool
	phase   string
	phaseMs int
}

func main() {
	var o options
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark's contract: workloads, metric tables, run length")
	flag.StringVar(&o.workload, "workload", "", "workload to run (all of BENCHMARK.json's when empty)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per workload (BENCHMARK.json's run_seconds when 0)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and the ladder and reports the per-layer metrics")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny phases: checks the wiring, measures nothing")
	flag.BoolVar(&o.layers, "layers", false, "run the per-layer ladder alone")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run this many full sets and compare every metric's spread with its bound")
	flag.BoolVar(&o.child, "child", false, "internal: run one phase in this process")
	flag.StringVar(&o.phase, "phase", "", "internal: the child's phase (sat, paced or ladder)")
	flag.IntVar(&o.phaseMs, "phase-ms", 0, "internal: the child's phase length in milliseconds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if o.child {
		if err := runChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "megabench:", err)
			os.Exit(1)
		}
		return
	}
	var err error
	if spec, err = benchkit.LoadSpec(o.spec); err != nil {
		fatalf("%v", err)
	}
	switch {
	case o.smoke:
		o.seconds = benchkit.SmokeSeconds
	case o.seconds == 0:
		o.seconds = spec.RunSeconds
	case o.seconds < 0:
		fatalf("-seconds must be at least 1")
	}

	switch {
	case o.calibrate > 0:
		err = calibrate(o)
	case o.layers:
		err = reportLadder(o)
	default:
		err = runWorkloads(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "megabench:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "megabench: "+format+"\n", args...)
	os.Exit(2)
}

// --- child ----------------------------------------------------------------------

// runChild runs one phase and prints its result as one JSON line.
func runChild(o options) error {
	var res benchkit.PhaseResult
	if o.phase == "ladder" {
		res = benchkit.RunLadder(time.Duration(o.phaseMs) * time.Millisecond)
	} else {
		wl, err := benchkit.WorkloadByName(o.workload)
		if err != nil {
			return err
		}
		ph := benchkit.Phase{
			Workload: wl,
			Kind:     o.phase,
			Seed:     o.seed,
			Shape:    benchkit.ShapeOf(o.phase, time.Duration(o.phaseMs)*time.Millisecond, o.smoke),
			Trace:    o.trace != 0,
			Origin:   processStart,
		}
		res = benchkit.RunPhase(ph)
		if ph.Trace && ph.Kind == "paced" {
			path := filepath.Join(o.outDir, "trace-"+wl.Name+".json")
			if err := benchkit.WriteTrace(path, wl.Name, res.Spans); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one phase in a child process with GOMAXPROCS=2 and returns
// what it reported. Children run one at a time: the box has two cores.
func spawn(o options, phase string, length time.Duration, trace bool) (benchkit.PhaseResult, error) {
	self, err := os.Executable()
	if err != nil {
		return benchkit.PhaseResult{}, err
	}
	args := []string{"-child", "-phase", phase, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-phase-ms", strconv.FormatInt(length.Milliseconds(), 10), "-out", o.outDir}
	if trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	var res benchkit.PhaseResult
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s/%s child: %w", o.workload, phase, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s/%s child printed no result: %w", o.workload, phase, err)
	}
	return res, nil
}

// --- parent ---------------------------------------------------------------------

// report is one workload's outcome in the driver's format.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkloads(o options) error {
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	ok := true
	for _, name := range names {
		if _, err := benchkit.WorkloadByName(name); err != nil {
			fatalf("%v", err)
		}
		o.workload = name
		rep, all, errs, err := runWorkload(o)
		if err != nil {
			return err
		}
		printMetrics(name, all)
		for _, e := range errs {
			fmt.Printf("%s: FAILED: %s\n", name, e)
		}
		fmt.Printf("%s: ops_attempted=%d ops_failed=%d\n", name, rep.Attempted, rep.Failed)
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
		ok = ok && rep.Correct
	}
	if !ok {
		return fmt.Errorf("outputs are not correct")
	}
	return nil
}

// runWorkload measures one workload. Untraced, it runs Repeats paced
// children and reports the best of them. Traced, it runs an untraced sat
// child (records_s, and the base of trace.overhead_pct), a traced sat and a
// traced paced child, and the ladder.
func runWorkload(o options) (rep report, all map[string]float64, errs []string, err error) {
	traced := o.trace != 0
	budget := benchkit.Split(o.seconds, traced)
	run := func(phase string, length time.Duration, seed uint64, trace bool) (benchkit.PhaseResult, error) {
		c := o
		c.seed = seed
		res, err := spawn(c, phase, length, trace)
		rep.Failed += res.Failed
		rep.Attempted += res.Attempted
		errs = append(errs, res.Errors...)
		return res, err
	}
	var paceds []benchkit.PhaseResult
	all = map[string]float64{}
	if traced {
		base, err := run("sat", budget.Base, o.seed, false)
		if err != nil {
			return rep, nil, nil, err
		}
		sat, err := run("sat", budget.Sat, o.seed, true)
		if err != nil {
			return rep, nil, nil, err
		}
		paced, err := run("paced", budget.Paced, o.seed, true)
		if err != nil {
			return rep, nil, nil, err
		}
		lad, err := run("ladder", budget.Ladder, o.seed, false)
		if err != nil {
			return rep, nil, nil, err
		}
		paceds = append(paceds, paced)
		maps.Copy(all, lad.Metrics)
		if b := base.Metrics["records_s"]; b > 0 {
			all["records_s"] = b
			all["trace.overhead_pct"] = 100 * (b - sat.Metrics["records_s"]) / b
		}
	} else {
		for r := 0; r < benchkit.Repeats; r++ {
			// Each repeat is another stretch of the seeded input.
			paced, err := run("paced", budget.Paced/benchkit.Repeats, o.seed*benchkit.Repeats+uint64(r), false)
			if err != nil {
				return rep, nil, nil, err
			}
			paceds = append(paceds, paced)
		}
	}

	// A paced child whose plans did not all finish measured a stall of the
	// host, not the engine; the run needs one that did not.
	discarded := len(paceds)
	paceds = slices.DeleteFunc(paceds, func(r benchkit.PhaseResult) bool { return r.Unfinished > 0 })
	all["paced.discarded"] = float64(discarded - len(paceds))
	if len(paceds) == 0 {
		rep.Failed++
		errs = append(errs, "no paced phase finished its migration plans")
	}

	// Over the paced children, a metric BENCHMARK.json names is the best
	// child's value (see README.md: what disturbs a child on a shared host
	// only ever makes it worse, and a regression of the engine worsens every
	// child); a diagnostic is the median.
	better := map[string]string{}
	for _, d := range append(append([]benchkit.MetricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		better[d.Name] = d.Better
	}
	values := map[string][]float64{}
	for _, res := range paceds {
		for k, v := range res.Metrics {
			values[k] = append(values[k], v)
		}
	}
	for k, v := range values {
		switch better[k] {
		case "lower":
			all[k] = slices.Min(v)
		case "higher":
			all[k] = slices.Max(v)
		default:
			all[k] = benchkit.Median(v)
		}
	}

	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	rep.Metrics = map[string]metric{}
	for _, d := range defs {
		rep.Metrics[d.Name] = metric{Value: all[d.Name], Unit: d.Unit}
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Failed++
	}
	rep.Correct = rep.Failed == 0
	return rep, all, errs, nil
}

// printMetrics prints every metric by name with its unit; names outside
// BENCHMARK.json's tables are diagnostics, printed bare.
func printMetrics(workload string, all map[string]float64) {
	units := map[string]string{}
	for _, d := range append(append([]benchkit.MetricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s/%s = %s %s\n", workload, k, strconv.FormatFloat(all[k], 'g', 8, 64), units[k])
	}
}

func reportLadder(o options) error {
	o.workload = spec.Workloads[0].Name
	res, err := spawn(o, "ladder", time.Duration(o.seconds)*time.Second, false)
	if err != nil {
		return err
	}
	printMetrics("ladder", res.Metrics)
	return nil
}

// --- calibrate --------------------------------------------------------------------

// calibrate runs n full sets, each with another seed, and prints for every
// workload and end-to-end metric the median, the quartiles and the spread
// next to the bound. It fails if a spread exceeds its bound, as the driver
// does: for every metric but setup_s, which the driver holds only to its
// median not drifting between two such sets, and which is marked so.
func calibrate(o options) error {
	vals := map[string]map[string][]float64{}
	var names []string
	for _, w := range spec.Workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
			vals[w.Name] = map[string][]float64{}
		}
	}
	seed := o.seed
	for i := 0; i < o.calibrate; i++ {
		for _, name := range names {
			o.workload, o.seed = name, seed+uint64(i)
			rep, _, errs, err := runWorkload(o)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: outputs are not correct: %v", name, o.seed, errs)
			}
			for k, m := range rep.Metrics {
				vals[name][k] = append(vals[name][k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", i+1, o.calibrate, name)
		}
	}
	fmt.Printf("| workload | metric | unit | median | q1 | q3 | iqr/median | range/median | bound |\n|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, name := range names {
		for _, d := range spec.EndToEnd {
			sp := benchkit.SpreadOf(vals[name][d.Name])
			mark := ""
			switch {
			case d.Name == "setup_s":
				mark = " (on the median's drift only)"
			case sp.IQR > d.Bound:
				mark = " EXCEEDS"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.1f%% | %.1f%% | %.0f%%%s |\n",
				name, d.Name, d.Unit, sp.Median, sp.Q1, sp.Q3, 100*sp.IQR, 100*sp.Range, 100*d.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", bad)
	}
	return nil
}
