// Chaos drives failure injection for multi-process runs: it supervises a
// set of real OS processes (the cluster's workers), kills one mid-run the
// way an operator's machine dies — SIGKILL, no flushing, no goodbyes — and
// restarts the cluster in recovery mode. The recovery equivalence tests and
// scripts/cluster.sh's kill-and-recover mode are built on it.
package harness

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ChaosProc describes one supervised process.
type ChaosProc struct {
	Name string   // label for logs and errors
	Path string   // binary to execute
	Args []string // arguments (argv[1:])
	Env  []string // extra environment entries, appended to os.Environ()
	Log  string   // file receiving combined stdout+stderr ("" discards)
}

// Chaos supervises one generation of cluster processes. Create it with the
// process specs, StartAll, then Kill/Signal/WaitAll as the scenario
// demands. A Chaos value is not safe for concurrent method calls.
//
//megalint:allow unreached test support: TestClusterKillAndRecover and TestClusterLeaderFailover supervise their processes with it
type Chaos struct {
	Procs []ChaosProc

	cmds   []*exec.Cmd
	logs   []*os.File
	done   []chan error // closed after Wait returns; carries the exit error
	exited []atomic.Bool
	gen    []int // incarnation count; restarts append to the log
}

func (c *Chaos) ensure() {
	if c.cmds == nil {
		c.cmds = make([]*exec.Cmd, len(c.Procs))
		c.logs = make([]*os.File, len(c.Procs))
		c.done = make([]chan error, len(c.Procs))
		c.exited = make([]atomic.Bool, len(c.Procs))
		c.gen = make([]int, len(c.Procs))
	}
}

// StartAll launches every process. On error, already-started processes are
// killed.
func (c *Chaos) StartAll() error {
	c.ensure()
	for i := range c.Procs {
		if err := c.start(i); err != nil {
			c.KillAll()
			return err
		}
	}
	return nil
}

// Start launches process i, which must not already be running. The
// supervision tables are sized lazily, so a gauntlet may bring up a subset
// with Start and add the rest later — the join scenario's late roster slot.
func (c *Chaos) Start(i int) error {
	c.ensure()
	if c.running(i) {
		return fmt.Errorf("chaos: %s is already running", c.Procs[i].Name)
	}
	return c.start(i)
}

// Restart launches a fresh incarnation of process i, first waiting up to
// the timeout for the previous one (if any) to exit. The new incarnation
// appends to the same log file, so one artifact holds the full history.
func (c *Chaos) Restart(i int, timeout time.Duration) error {
	c.ensure()
	if c.cmds[i] != nil {
		select {
		case <-c.done[i]:
		case <-time.After(timeout):
			return fmt.Errorf("chaos: %s still running after %v; kill it before Restart", c.Procs[i].Name, timeout)
		}
		c.closeLog(i)
	}
	return c.start(i)
}

// running reports whether incarnation i was started and has not exited.
func (c *Chaos) running(i int) bool {
	return c.cmds[i] != nil && !c.exited[i].Load()
}

func (c *Chaos) start(i int) error {
	p := c.Procs[i]
	cmd := exec.Command(p.Path, p.Args...)
	cmd.Env = append(os.Environ(), p.Env...)
	if p.Log != "" {
		flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if c.gen[i] > 0 {
			flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(p.Log, flags, 0o644)
		if err != nil {
			return fmt.Errorf("chaos: log for %s: %w", p.Name, err)
		}
		c.logs[i] = f
		cmd.Stdout = f
		cmd.Stderr = f
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: starting %s: %w", p.Name, err)
	}
	c.cmds[i] = cmd
	c.gen[i]++
	c.exited[i].Store(false)
	ch := make(chan error, 1)
	c.done[i] = ch
	go func() {
		err := cmd.Wait()
		c.exited[i].Store(true)
		ch <- err
		close(ch)
	}()
	return nil
}

// Kill delivers SIGKILL to process i — the abrupt machine-death failure
// mode checkpoints exist for. It does not wait for the exit.
func (c *Chaos) Kill(i int) error {
	if c.cmds[i] == nil || c.cmds[i].Process == nil {
		return fmt.Errorf("chaos: %s not running", c.Procs[i].Name)
	}
	return c.cmds[i].Process.Signal(syscall.SIGKILL)
}

// KillAll SIGKILLs every process that was started (best effort).
func (c *Chaos) KillAll() {
	for i := range c.cmds {
		if c.cmds[i] != nil && c.cmds[i].Process != nil {
			c.cmds[i].Process.Signal(syscall.SIGKILL)
		}
	}
}

// Wait blocks until process i exits (or the timeout elapses) and returns
// its exit error (nil for success).
func (c *Chaos) Wait(i int, timeout time.Duration) error {
	select {
	case err := <-c.done[i]:
		c.closeLog(i)
		return err
	case <-time.After(timeout):
		return fmt.Errorf("chaos: %s did not exit within %v", c.Procs[i].Name, timeout)
	}
}

// ExitStatus is one process's outcome from WaitAll.
type ExitStatus struct {
	Err    error // exit error (nil: clean exit, or the process was never started)
	Killed bool  // true when WaitAll SIGKILLed it as a straggler at the timeout
}

// WaitAll waits for every started process, killing stragglers once the
// timeout elapses, and returns the per-process outcomes. A straggler's
// status has Killed set so a gauntlet failure names the actual culprit
// instead of blaming whatever exit error the SIGKILL produced.
func (c *Chaos) WaitAll(timeout time.Duration) []ExitStatus {
	sts := make([]ExitStatus, len(c.cmds))
	var wg sync.WaitGroup
	deadline := time.After(timeout)
	finished := make(chan struct{})
	go func() {
		select {
		case <-deadline:
			for i := range c.cmds {
				if c.cmds[i] != nil && !c.exited[i].Load() {
					sts[i].Killed = true
				}
			}
			c.KillAll()
		case <-finished:
		}
	}()
	for i := range c.cmds {
		if c.cmds[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts[i].Err = <-c.done[i]
		}(i)
	}
	wg.Wait()
	close(finished)
	for i := range c.cmds {
		c.closeLog(i)
	}
	return sts
}

func (c *Chaos) closeLog(i int) {
	if c.logs[i] != nil {
		c.logs[i].Close()
		c.logs[i] = nil
	}
}
