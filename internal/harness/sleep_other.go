//go:build !linux

package harness

import "time"

// sleeper is time.Sleep where there is no timerfd (see sleep_linux.go).
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (*sleeper) sleep(d time.Duration) { time.Sleep(d) }

func (*sleeper) close() {}
