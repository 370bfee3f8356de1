// Package leakcheck fails a test binary whose goroutines outlive its
// tests. The runtime packages spawn goroutines aggressively — transport
// receive loops per connection generation, worker event loops, control
// planes — and every one of them is supposed to be joined by a Close or
// Wait before the test that started it returns. A goroutine that survives
// m.Run is a shutdown-path bug: in production the same goroutine would
// outlive a drained worker or a closed transport and pin its buffers
// forever.
//
// Usage, from a TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Main runs the tests and then polls the goroutine inventory until it
// drains or a deadline passes, so goroutines legitimately mid-teardown
// (a recvLoop observing its closed connection, a worker unwinding after
// Wait returned) get a grace period rather than a false positive. Stacks
// from the runtime, the testing framework, and leakcheck itself are
// filtered; anything else that remains after the deadline is reported
// with its full stack and fails the binary.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main wraps m.Run with a post-run leak check. It never returns.
//
//megalint:allow unreached test support: the TestMain of the dataflow, plan and transport tests
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := Check(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls until no unexpected goroutines remain or the deadline
// passes, returning an error listing the survivors' stacks. Exported so
// tests of teardown paths can assert quiescence mid-binary.
func Check(deadline time.Duration) error {
	var leaked []string
	delay := 1 * time.Millisecond
	stop := time.Now().Add(deadline)
	for {
		leaked = interesting(stacks())
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(stop) {
			break
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
	return fmt.Errorf("%d leaked goroutine(s) after %v:\n\n%s",
		len(leaked), deadline, strings.Join(leaked, "\n\n"))
}

// stacks captures all goroutine stacks, growing the buffer until the dump
// fits.
func stacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// ignorePrefixes match goroutine states that are never leaks.
var ignoreStates = []string{
	"[running]",  // includes the goroutine running the check itself
	"[runnable]", // scheduled but not yet started; state not yet meaningful
}

// ignoreFrames match stack content belonging to the runtime, the testing
// framework, or this package.
var ignoreFrames = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runTests(",
	"testing.runFuzzTests(",
	"testing.runBenchmarks(",
	"created by runtime",
	"runtime.goexit0",
	"runtime.gc",
	"runtime.ReadTrace",
	"runtime.ensureSigM",
	"os/signal.signal_recv",
	"os/signal.loop",
	"leakcheck.Main",
	"leakcheck.Check",
}

// interesting splits a full runtime.Stack dump into per-goroutine blocks
// and returns those not covered by the ignore lists.
func interesting(dump string) []string {
	var out []string
	for _, g := range strings.Split(dump, "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" || !strings.HasPrefix(g, "goroutine ") {
			continue
		}
		header, _, _ := strings.Cut(g, "\n")
		skip := false
		for _, s := range ignoreStates {
			if strings.Contains(header, s) {
				skip = true
				break
			}
		}
		for _, f := range ignoreFrames {
			if skip {
				break
			}
			if strings.Contains(g, f) {
				skip = true
			}
		}
		if !skip {
			out = append(out, g)
		}
	}
	return out
}
