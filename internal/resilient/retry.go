package resilient

import (
	"errors"
	"fmt"
	"time"

	"tss/internal/vfs"
)

// Policy is the shared retry policy: a budget of attempts, a jittered
// exponential backoff between them, and an optional wall-clock budget
// that caps the total time spent retrying. The zero value retries
// nothing (Run and Do run the operation exactly once).
//
// A Policy value is immutable once configured and safe to share.
type Policy struct {
	// Attempts is the number of retries after the first try.
	Attempts int
	// Base is the delay before the first retry; it doubles per retry.
	Base time.Duration
	// Max caps the (pre-jitter) backoff delay; 0 means uncapped.
	Max time.Duration
	// Jitter > 0 enables full-jitter backoff: each delay is drawn
	// uniformly from [0, Backoff(attempt)), so concurrent retriers
	// against one recovering backend decorrelate instead of re-spiking
	// in lockstep. Non-positive disables randomization (deterministic
	// schedule). The magnitude is kept for configuration compatibility
	// but does not scale the delay — full jitter always spans the whole
	// backoff window, which is what kills the thundering herd.
	Jitter float64
	// Budget caps the total wall-clock time spent on retries; once the
	// next backoff would cross it, Do gives up. 0 means no time cap.
	Budget time.Duration
	// RetryBudget, when non-nil, is the shared token bucket charged one
	// token per retry; an empty bucket stops the loop with the current
	// error standing (reported as exhausted). Pushback retries draw
	// from the same bucket, which is what caps a retry storm.
	RetryBudget *RetryBudget
	// OnRetry, when non-nil, observes each retry about to be made: the
	// 0-based retry index and the error that provoked it.
	OnRetry func(attempt int, err error)
	// OnReconnect and OnGiveUp, when non-nil, observe Run: each
	// successful reconnect, and each recovery it abandons. Layers hang
	// their counters here.
	OnReconnect func()
	OnGiveUp    func()
	// Sleep replaces time.Sleep (tests). Nil means time.Sleep.
	Sleep func(time.Duration)
	// Now replaces time.Now for the Budget clock (tests).
	Now func() time.Time
	// Rand is a uniform [0,1) source for jitter. Nil picks a private
	// seeded source on first use with jitter enabled.
	Rand func() float64
}

// Validate checks the knobs a user can set: a negative attempt count,
// a non-positive base delay, or a cap below the base are typing errors,
// not policies.
func (p Policy) Validate() error {
	switch {
	case p.Attempts < 0:
		return fmt.Errorf("resilient: attempts must be >= 0, got %d", p.Attempts)
	case p.Base <= 0:
		return fmt.Errorf("resilient: base delay must be > 0, got %v", p.Base)
	case p.Max != 0 && p.Max < p.Base:
		return fmt.Errorf("resilient: max delay %v is below base delay %v", p.Max, p.Base)
	}
	return nil
}

// permanentError aborts a retry loop from inside a prepare func.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so that a prepare function can abort Do: the
// loop stops immediately and Do returns the wrapped error.
func Permanent(err error) error { return &permanentError{err: err} }

// Backoff returns the (pre-jitter) delay before retry i: Base doubled
// i times, capped at Max.
func (p Policy) Backoff(i int) time.Duration {
	d := p.Base
	for ; i > 0 && (p.Max <= 0 || d < p.Max); i-- {
		d *= 2
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	return d
}

// Do runs op under the policy. While retryable(err) holds and budget
// remains, it sleeps the backoff for the attempt, then calls prepare
// (when non-nil) and re-runs op. prepare is the recovery step —
// typically a reconnect; a prepare error consumes the attempt without
// re-running op, except a Permanent error, which aborts the loop and
// is returned unwrapped.
//
// Do returns the final error and whether the loop gave up with a
// retryable error still standing (budget exhausted). It is the loop
// under Run, which decides what prepare does and what exhaustion means;
// nothing outside this package calls it.
func (p Policy) Do(op func() error, prepare func() error, retryable func(error) bool) (err error, exhausted bool) {
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	now := p.Now
	if now == nil {
		now = time.Now
	}
	rnd := p.Rand
	if rnd == nil && p.Jitter > 0 {
		rnd = lockedRand()
	}
	var deadline time.Time
	if p.Budget > 0 {
		deadline = now().Add(p.Budget)
	}
	err = op()
	for attempt := 0; attempt < p.Attempts && retryable(err); attempt++ {
		delay := p.Backoff(attempt)
		if p.Jitter > 0 {
			delay = fullJittered(delay, rnd)
		}
		if !deadline.IsZero() && now().Add(delay).After(deadline) {
			return err, true
		}
		if !p.RetryBudget.Withdraw() {
			return err, true
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		sleep(delay)
		if prepare != nil {
			if perr := prepare(); perr != nil {
				var pe *permanentError
				if errors.As(perr, &pe) {
					return pe.err, false
				}
				continue
			}
		}
		err = op()
	}
	if err == nil {
		p.RetryBudget.Success()
	}
	return err, retryable(err)
}

// abandoned is what Run returns when recovery runs out of attempts,
// time or tokens. It reads as its errno everywhere (AsErrno, errors.Is)
// but Run never drives it again, so driven layers stacked on each other
// make 1 + Attempts attempts in total, not a product.
type abandoned struct{ vfs.Errno }

func (a abandoned) Unwrap() error { return a.Errno }

// Run is the one retry site of the system: the recovery protocol of
// the paper's §6, for any operation against any filesystem. The first
// attempt runs bare. A transport error (Retryable) is answered by
// backing off, reconnecting fs through its Reconnector capability when
// it has one, then running reopen — the step that re-establishes an
// open handle, nil for path operations; a Permanent error from it ends
// recovery with that error — and re-running op. With neither a
// Reconnector nor a reopen step nothing could cure a lost connection,
// and the error surfaces unchanged. Overload pushback (EAGAIN) needs no
// cure: the connection and the handle are fine, so op is re-run in
// place after the backoff whatever fs can do, and reconnecting — dial
// load aimed at a server that is shedding — is skipped.
//
// Every retry is charged to RetryBudget and every success credits it.
// Abandoned recovery returns EAGAIN when pushback was left standing —
// the caller must still see the overload signal — and ETIMEDOUT
// otherwise, and that verdict is final: Run does not retry an error
// another Run gave up with.
func (p Policy) Run(fs vfs.FileSystem, op func() error, reopen func() error) error {
	err := op()
	if err == nil {
		p.RetryBudget.Success()
		return nil
	}
	// Semantic errors — most failures: every ENOENT of a search path —
	// leave here, before anything is probed or built.
	if p.Attempts <= 0 || !RetryableOrPushback(err) {
		return err
	}
	rc := vfs.Capabilities(fs).Reconnector
	retryable := func(e error) bool {
		if errors.As(e, new(abandoned)) {
			return false
		}
		return Pushback(e) || Retryable(e) && (rc != nil || reopen != nil)
	}
	if !retryable(err) {
		return err
	}
	first := true
	err, exhausted := p.Do(func() error {
		// Do opens with an attempt; that one has been made.
		if !first {
			err = op()
		}
		first = false
		return err
	}, func() error {
		if Pushback(err) {
			return nil
		}
		if rc != nil {
			if rerr := rc.Reconnect(); rerr != nil {
				return rerr
			}
			if p.OnReconnect != nil {
				p.OnReconnect()
			}
		}
		if reopen != nil {
			return reopen()
		}
		return nil
	}, retryable)
	if !exhausted {
		return err
	}
	if p.OnGiveUp != nil {
		p.OnGiveUp()
	}
	if Pushback(err) {
		return abandoned{vfs.EAGAIN}
	}
	return abandoned{vfs.ETIMEDOUT}
}
