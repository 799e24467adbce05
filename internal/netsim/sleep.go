package netsim

import (
	"runtime"
	"syscall"
	"time"
)

// sleepGuard is how much of a wait is yielded rather than slept. A
// nanosleep whose timer slack is 1 ns ends about 6 µs late at the
// median and 16 µs at the 90th percentile under dsfs_lan's load, so
// the reader almost always wakes before its chunk is due and the yield
// lands it on time. The yield is most of the CPU a wait costs: 35 µs
// gave the same median latencies and half again the CPU.
const sleepGuard = 20 * time.Microsecond

// defaultTimerSlack is the kernel's timer slack for a thread that has
// not set its own. Where prctl is refused, a sleep may end this much
// late, so the guard grows by it.
const defaultTimerSlack = 50 * time.Microsecond

// sleepUntil returns at t, give or take a few microseconds. It sleeps
// in nanosleep until t − guard and yields the rest. The Go timer and
// time.Sleep quantize to about a millisecond, which would corrupt every
// sub-millisecond latency the link simulates, and a yield for the whole
// wait would burn a CPU. The goroutine keeps its OS thread for the
// sleep, because the slack is per thread; nanosleep is a blocking
// system call, so the thread's processor runs other goroutines
// meanwhile.
//
// The 1 ns slack is not restored: it stays on the thread after
// UnlockOSThread, so the runtime's later timed futex and epoll waits on
// that thread, for any goroutine, end precisely too rather than being
// coalesced by up to 50 µs. That is why setting it again on every call,
// on whichever thread the goroutine lands, is harmless: it is one cheap
// system call and never changes what another caller relies on.
func sleepUntil(t time.Time) {
	runtime.LockOSThread()
	guard := sleepGuard
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0); errno != 0 {
		guard += defaultTimerSlack
	}
	// A signal ends a nanosleep early (EINTR): sleep what is left. Any
	// other failure leaves the rest of the wait to the yield.
	for d := time.Until(t) - guard; d > 0; d = time.Until(t) - guard {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			break
		}
	}
	runtime.UnlockOSThread()
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
