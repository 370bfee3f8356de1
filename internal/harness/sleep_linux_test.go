package harness

import (
	"slices"
	"testing"
	"time"
)

// TestSleeperBeatsTimerRounding pins why Run paces through a sleeper: in an
// otherwise idle process a 100 µs time.Sleep waits for the runtime's next
// millisecond-granular epoll timeout (about 1.05 ms), while the sleeper's
// timerfd wakes the netpoller when it fires. No wait may end early.
func TestSleeperBeatsTimerRounding(t *testing.T) {
	s := newSleeper()
	defer s.close()
	if s.f == nil {
		t.Fatal("no timerfd: the sleeper fell back to time.Sleep")
	}
	const d = 100 * time.Microsecond
	waits := make([]time.Duration, 50)
	for i := range waits {
		start := time.Now()
		s.sleep(d)
		if waits[i] = time.Since(start); waits[i] < d {
			t.Fatalf("sleep(%v) returned after %v", d, waits[i])
		}
	}
	slices.Sort(waits)
	if med := waits[len(waits)/2]; med >= 500*time.Microsecond {
		t.Fatalf("median wait for %v is %v (fastest %v, slowest %v): rounded like time.Sleep",
			d, med, waits[0], waits[len(waits)-1])
	}
}
