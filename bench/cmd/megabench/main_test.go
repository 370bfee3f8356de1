package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"megaphone/bench/benchkit"
)

// megabench is the binary under test, built once for the package's tests.
var megabench string

const specPath = "../../../BENCHMARK.json"

func loadSpec(t *testing.T) benchkit.Spec {
	spec, err := benchkit.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "megabench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	megabench = filepath.Join(dir, "megabench")
	if out, err := exec.Command("go", "build", "-o", megabench, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smoke runs one workload the way the driver does, at -smoke size: the
// parent spawns its children, merges what they report, and prints the result
// line last with exactly the metrics of the requested kind.
func smoke(t *testing.T, trace string, want []benchkit.MetricDef) {
	cmd := exec.Command(megabench, "-smoke", "-spec", specPath, "--workload", "kc-cluster", "--seed", "5", "--seconds", "30", "--trace", trace, "-out", t.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s%s", err, out, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("the last line is not the result: %v\n%s", err, out)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("result %+v", rep)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics in the result, want %d", len(rep.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
}

func TestSmokeUntraced(t *testing.T) { smoke(t, "0", loadSpec(t).EndToEnd) }

func TestSmokeTraced(t *testing.T) { smoke(t, "1", loadSpec(t).PerLayer) }

// TestRefusesAnUnknownWorkload pins the exit code of a bad invocation.
func TestRefusesAnUnknownWorkload(t *testing.T) {
	err := exec.Command(megabench, "-spec", specPath, "--workload", "nope").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("got %v, want exit code 2", err)
	}
}
