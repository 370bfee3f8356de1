package freelist

import (
	"sync/atomic"
	"testing"
)

// cycle takes n buffers and puts them back, as one epoch of a steady state
// that keeps n buffers in flight does.
func cycle(l *List[[]byte], n, size int) (misses int) {
	var out [][]byte
	for i := 0; i < n; i++ {
		b, ok := l.Get()
		if !ok {
			misses++
			b = make([]byte, 0, size)
		}
		out = append(out, b[:size])
	}
	for _, b := range out {
		l.Put(b[:0], len(b), cap(b))
	}
	return misses
}

// TestListKeepsSteadyStateAndAgesOutABurst is the rule end to end: buffers
// the steady state cycles survive any number of intervals without a miss, a
// burst's extra buffers are gone two intervals after it, and the byte
// counter follows.
func TestListKeepsSteadyStateAndAgesOutABurst(t *testing.T) {
	var held atomic.Int64
	l := New[[]byte](&held)
	const steady, burst, size = 4, 64, 1024

	cycle(&l, steady, size)
	for interval := 0; interval < 5; interval++ {
		for epoch := 0; epoch < 10; epoch++ {
			if m := cycle(&l, steady, size); m != 0 {
				t.Fatalf("interval %d: steady state missed the free list %d times", interval, m)
			}
		}
		l.Trim()
	}
	if l.Len() != steady || held.Load() != steady*size {
		t.Fatalf("steady state holds %d buffers, %d bytes; want %d, %d", l.Len(), held.Load(), steady, steady*size)
	}

	cycle(&l, burst, size)
	if l.Len() != burst {
		t.Fatalf("burst left %d buffers, want %d", l.Len(), burst)
	}
	for interval := 1; interval <= 3; interval++ {
		l.Trim()
		for epoch := 0; epoch < 10; epoch++ {
			if m := cycle(&l, steady, size); m != 0 {
				t.Fatalf("after the burst: steady state missed the free list %d times", m)
			}
		}
		if interval < 2 && l.Len() != burst {
			t.Fatalf("trim %d after the burst already dropped to %d buffers: a single quiet interval must not", interval, l.Len())
		}
	}
	if l.Len() != steady || held.Load() != steady*size {
		t.Fatalf("two intervals after the burst the list holds %d buffers, %d bytes; want %d, %d", l.Len(), held.Load(), steady, steady*size)
	}
}

// TestListRefusesOversizedBuffers: count is not enough — a burst-sized
// buffer that stays in the cycle would carry steady-state batches forever.
func TestListRefusesOversizedBuffers(t *testing.T) {
	var held atomic.Int64
	l := New[[]byte](&held)
	big := make([]byte, 1<<20)
	l.Put(big[:0], len(big), cap(big))
	if l.Len() != 1 {
		t.Fatal("a buffer used to capacity was refused")
	}
	for interval := 0; interval < 2; interval++ {
		b, _ := l.Get()
		l.Put(b[:0], 100, cap(b)) // the big buffer carrying a small batch
		if l.Len() != 1 {
			t.Fatalf("interval %d: dropped while the burst is still within two intervals", interval)
		}
		l.Trim()
	}
	b, _ := l.Get()
	l.Put(b[:0], 100, cap(b))
	if l.Len() != 0 || held.Load() != 0 {
		t.Fatalf("a 1 MiB buffer carrying 100 bytes is still held (%d buffers, %d bytes) two intervals after anything needed it", l.Len(), held.Load())
	}
	small := make([]byte, 0, 160)
	l.Put(small, 100, cap(small))
	if l.Len() != 1 {
		t.Fatal("a buffer within twice the recent demand was refused")
	}
}

func TestBufDropsWhatRecentUsesWouldFitInTwice(t *testing.T) {
	var s Buf
	s.B = make([]byte, 0, 1<<20)
	s.Note(1 << 20)
	for interval := 0; interval < 2; interval++ {
		if got := s.Trim(); got != 1<<20 {
			t.Fatalf("trim %d dropped the buffer (%d) while its large use is within two intervals", interval, got)
		}
		s.Note(100)
	}
	if got := s.Trim(); got != 0 {
		t.Fatalf("the buffer still holds %d bytes two intervals after its large use", got)
	}
}
