package plan

import "megaphone/internal/core"

// SetOnStepDone makes f observe each step of c's plans as it completes.
func SetOnStepDone(c *Controller, f func(step int, t core.Time)) { c.onStepDone = f }

// SetOnLeadership makes f observe the leadership transitions of the process
// o configures.
func SetOnLeadership(o *ClusterOptions, f func(leader bool, epoch core.Time)) { o.onLeadership = f }

// MemEpoch reports the membership epoch of mc's latest applied decision.
func MemEpoch(mc *MembershipController) uint64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.memEpoch
}
