package megaphone_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps tier-1 honest about the benchmark: bench/ is a
// Go module of its own (the driver's contract wants the compiled benchmark
// to carry its own build file), so `go build ./... && go test ./...` at the
// root never compiles it, and a signature change under internal/ would only
// show as a failed benchmark run after the change is submitted. Vetting the
// module type-checks everything it imports from this tree.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	if out, err := exec.Command(goTool, "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
