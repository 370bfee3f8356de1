package harness

import (
	"errors"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits out sub-millisecond intervals on time. Go's runtime, once
// every P is idle, waits for its next timer in epoll_wait, whose timeout is
// in whole milliseconds: a time.Sleep of 100 µs in an otherwise idle
// process lasts about 1.05 ms. Run paces 1 ms epochs and aligns its clock
// by polling, so with time.Sleep an epoch goes in up to a millisecond after
// its deadline (the p90 injection lag was 1.0 ms for a 2-process keycount
// run on a 2-vCPU VM) and how late varies from run to run. A timerfd
// registered with the netpoller makes epoll_wait return when it fires, so
// the wait ends within the kernel's timer slack (about 50 µs). Where no
// timerfd can be had the sleeper falls back to time.Sleep.
//
// A sleeper is used by one goroutine at a time.
type sleeper struct {
	f  *os.File // the timerfd, nil when the fallback is in use
	fd uintptr  // f's descriptor (f.Fd() would switch it to blocking mode)
}

func newSleeper() *sleeper {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &sleeper{}
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// netpoller, so Read parks the goroutine instead of a thread.
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func (s *sleeper) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.f != nil {
		// struct itimerspec: a zero interval (one shot), then the value.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			// The read deadline, a runtime timer, ends the wait too: a
			// runtime whose Ps all have work checks its timers at every
			// scheduling but polls the timerfd only when a P runs dry, so
			// the wait ends at whichever the runtime notices first. Arming
			// the timerfd clears an expiration a deadline left unread.
			s.f.SetReadDeadline(time.Now().Add(d))
			if _, err := s.f.Read(expirations[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				return
			}
		}
	}
	time.Sleep(d)
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}
