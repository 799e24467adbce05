// Package resilient is the health layer shared by every component of
// the tactical storage system: a per-backend circuit breaker, a common
// retry policy, and the transport-error classification they both key
// on.
//
// The paper's §3 "failure coherence" requirement says every TSS layer
// must present failures the same way the Unix interface does. The seed
// implementation honored that for error *values* but not for error
// *behavior*: only the adapter retried, the mirror re-probed a dead
// replica on every read, and nothing remembered that a backend was
// down. This package centralizes that memory — one retry driver
// (Policy.Run) for every caller that retries, one breaker for every
// layer that chooses among backends — so all of them recover the same
// way:
//
//   - Transport failures (ENOTCONN, ETIMEDOUT, EIO) mean "the backend,
//     not the request, failed" — they are candidates for retry,
//     failover, and breaker accounting. Semantic errors (ENOENT,
//     EACCES, EEXIST, ...) always surface unchanged.
//   - A Breaker watches consecutive transport failures per backend and
//     trips open, so callers stop paying a dead backend's timeout on
//     every operation. It re-admits the backend through half-open
//     probes on a jittered exponential schedule.
//   - A Policy bounds retries by attempt count, by wall-clock budget,
//     and (when configured) by a shared token-bucket RetryBudget, with
//     full-jitter exponential backoff between attempts.
//   - Overload pushback (EAGAIN) is its own class: retryable after
//     backoff and charged to the RetryBudget, but never breaker fuel —
//     a busy backend is not a dead one.
package resilient

import (
	"math/rand"
	"sync"
	"time"

	"tss/internal/vfs"
)

// TransportError reports whether err indicates the backend (not the
// request) failed: the errnos a lost server produces. These are the
// errors the circuit breaker counts and the mirror fails over on.
func TransportError(err error) bool {
	switch vfs.AsErrno(err) {
	case vfs.ENOTCONN, vfs.ETIMEDOUT, vfs.EIO:
		return true
	}
	return false
}

// Retryable reports whether an operation that failed with err may be
// re-driven against the same backend after reconnecting. It is the
// subset of TransportError that excludes EIO: a hard I/O error from a
// reachable server is not cured by retrying, while a severed or
// timed-out connection may be.
func Retryable(err error) bool {
	switch vfs.AsErrno(err) {
	case vfs.ENOTCONN, vfs.ETIMEDOUT:
		return true
	}
	return false
}

// Pushback reports whether err is an explicit overload signal (EAGAIN):
// the backend is healthy but shedding load. Pushback is deliberately
// NOT a TransportError — a busy server must not trip breakers or count
// as unreachable — but it is retryable after backing off, and every
// such retry is charged to the caller's RetryBudget so aggregate retry
// pressure stays capped while the backend drains (DESIGN.md §15).
func Pushback(err error) bool {
	return vfs.AsErrno(err) == vfs.EAGAIN
}

// RetryableOrPushback is everything Run re-drives: the
// reconnect-curable transport errors plus EAGAIN. Hedging layers must
// still treat pushback differently from transport loss (back off rather
// than fail over).
func RetryableOrPushback(err error) bool {
	return Retryable(err) || Pushback(err)
}

// fullJittered implements the "full jitter" backoff scheme: the delay
// is drawn uniformly from [0, d), so concurrent retriers against one
// recovering backend decorrelate instead of re-spiking in lockstep —
// the classic thundering-herd fix. A nil source or non-positive d
// returns d unchanged (deterministic schedule for tests).
func fullJittered(d time.Duration, rnd func() float64) time.Duration {
	if rnd == nil || d <= 0 {
		return d
	}
	return time.Duration(rnd() * float64(d))
}

// jittered perturbs d by ±frac, using the given uniform [0,1) source.
// A nil source or zero fraction returns d unchanged. The breaker's
// re-probe schedule uses this bounded form — a probe should happen
// near its scheduled time, just not in fleet lockstep — while Policy
// retry delays use fullJittered.
func jittered(d time.Duration, frac float64, rnd func() float64) time.Duration {
	if frac <= 0 || rnd == nil || d <= 0 {
		return d
	}
	f := 1 + frac*(2*rnd()-1)
	out := time.Duration(float64(d) * f)
	if out < 0 {
		return 0
	}
	return out
}

// lockedRand returns a mutex-guarded uniform [0,1) source seeded from
// the global generator; math/rand.Rand is not safe for concurrent use.
func lockedRand() func() float64 {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(rand.Int63()))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
}
