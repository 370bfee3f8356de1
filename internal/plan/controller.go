package plan

import (
	"sync"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// Controller feeds a migration plan into a megaphone control stream, one
// step per timestamp, pacing each step on the completion of the previous
// one. It plays the role of the external controller of Section 4.4 (the
// paper names DS2, Dhalion and Chi as candidate sources of the commands).
//
// The harness calls Tick once per epoch, before advancing the control
// epochs past it; the controller may inject that epoch's commands during the
// call. Drive every worker's control handle through the controller so their
// epochs advance in lockstep.
type Controller struct {
	mu      sync.Mutex
	handles []*dataflow.InputHandle[core.Move]
	probe   *dataflow.Probe

	plan     Plan
	next     int       // index of the next step to issue
	waitFor  core.Time // timestamp of the outstanding step; core.None when idle
	cooldown int       // idle ticks still owed after the last step (gap)
	active   bool

	// OnStepIssued observes each step as it is issued (instrumentation).
	//
	//megalint:allow unreached test support: TestMigrationSurvivesConnLoss cuts the connection when a step is issued
	OnStepIssued func(step int, t core.Time)
	onStepDone   func(step int, t core.Time) // observes each step as it completes

	started core.Time
	ended   core.Time
	haveEnd bool
}

// NewController returns a controller over the given per-worker control
// handles and output probe.
func NewController(handles []*dataflow.InputHandle[core.Move], probe *dataflow.Probe) *Controller {
	return &Controller{handles: handles, probe: probe, waitFor: core.None}
}

// Start schedules plan for execution beginning at the next tick. It must
// not be called while a previous plan is still executing.
func (c *Controller) Start(p Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active {
		panic("plan: controller already executing a plan")
	}
	c.plan = p
	c.next = 0
	c.waitFor = core.None
	c.cooldown = 0
	c.active = len(p.Steps) > 0
	c.haveEnd = false
	c.started = 0
	c.ended = 0
}

// Tick advances the controller at epoch now: it issues the next step when
// the previous one has completed (and any gap has elapsed), then advances
// every control handle to now+1. Call exactly once per epoch.
func (c *Controller) Tick(now core.Time) {
	c.mu.Lock()
	if c.active {
		if c.waitFor != core.None {
			if f := c.probe.Frontier(); f > c.waitFor || f == core.None {
				if c.onStepDone != nil {
					c.onStepDone(c.next-1, now)
				}
				step := c.plan.Steps[c.next-1]
				if step.Gap {
					c.cooldown = 1
				}
				c.waitFor = core.None
				if c.next >= len(c.plan.Steps) {
					c.active = false
					c.ended = now
					c.haveEnd = true
				}
			}
		}
		if c.active && c.waitFor == core.None {
			if c.cooldown > 0 {
				c.cooldown--
			} else {
				step := c.plan.Steps[c.next]
				if c.next == 0 {
					c.started = now
				}
				c.handles[0].SendAt(now, step.Moves...)
				c.waitFor = now
				if c.OnStepIssued != nil {
					c.OnStepIssued(c.next, now)
				}
				c.next++
			}
		}
	}
	handles := c.handles
	c.mu.Unlock()
	for _, h := range handles {
		h.AdvanceTo(now + 1)
	}
}

// Checkpoint injects a checkpoint command at epoch now. Call before Tick
// advances the control epochs past now; like plan steps, the command goes
// out on the first handle and the broadcast pact fans it to every worker.
// In a cluster every process issues the command at the same epoch (the
// cadence is deterministic) and the operator canonicalizes the merged
// same-time copies into one checkpoint.
func (c *Controller) Checkpoint(now core.Time) {
	c.mu.Lock()
	handle := c.handles[0]
	c.mu.Unlock()
	handle.SendAt(now, core.CheckpointMove())
}

// Close closes every control handle.
func (c *Controller) Close() {
	for _, h := range c.handles {
		h.Close()
	}
}

// Idle reports whether no plan is executing.
func (c *Controller) Idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.active
}

// Span returns the epochs at which the last completed plan started and
// ended, and whether a plan has completed.
func (c *Controller) Span() (start, end core.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started, c.ended, c.haveEnd
}
