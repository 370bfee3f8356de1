package harness

import "time"

// NewDriver is newDriver, for the driver-wiring tests.
var NewDriver = newDriver

// PaperTargets is paperTargets, for the schedule tests.
var PaperTargets = paperTargets

// PlanCheckpoints is planCheckpoints, for the checkpoint-plan tests; it
// reports the plan's start epoch and cadence in epochs.
func PlanCheckpoints(workload string, ops []string, dir string, every time.Duration, recover bool,
	totalWorkers, firstWorker, workers int,
	epochEvery, duration time.Duration) (startEpoch, everyEpochs int64, trimmed time.Duration, err error) {
	p, trimmed, err := planCheckpoints(workload, ops, dir, every, recover, totalWorkers, firstWorker, workers, epochEvery, duration)
	if err != nil {
		return 0, 0, 0, err
	}
	return p.startEpoch, p.every, trimmed, nil
}
