package resilient

import (
	"fmt"
	"testing"
	"time"

	"tss/internal/vfs"
)

// plainFS has no capabilities at all; linkFS can reconnect and counts
// how often it is asked to. Run only probes them, so the embedded
// FileSystem stays nil.
type plainFS struct{ vfs.FileSystem }

type linkFS struct {
	vfs.FileSystem
	reconnects int
	down       bool
}

func (l *linkFS) Reconnect() error {
	l.reconnects++
	if l.down {
		return vfs.ENOTCONN
	}
	return nil
}

// script is an operation that answers its errors in order, then the
// last one forever.
type script struct {
	errs  []error
	calls int
}

func (s *script) op() error {
	i := s.calls
	s.calls++
	if i >= len(s.errs) {
		i = len(s.errs) - 1
	}
	return s.errs[i]
}

func testPolicy() Policy {
	return Policy{Attempts: 3, Base: time.Millisecond, Sleep: func(time.Duration) {}}
}

// TestRunRecoveryProtocol walks the driver through the §6 protocol over a
// scripted operation: which errors it re-drives, what it does between
// attempts, and what it gives up with.
func TestRunRecoveryProtocol(t *testing.T) {
	forever := func(err error) []error { return []error{err} }
	cases := []struct {
		name       string
		link       bool    // fs can reconnect
		linkDown   bool    // ... but the server is gone
		errs       []error // op's answers
		reopen     []error // nil: a path operation, no reopen step
		want       vfs.Errno
		calls      int
		reconnects int
		reopens    int
		gaveUp     int
	}{
		{name: "success runs once", link: true, errs: forever(nil), want: vfs.EOK, calls: 1},
		{name: "semantic error surfaces at once", link: true, errs: forever(vfs.ENOENT), want: vfs.ENOENT, calls: 1},
		{name: "transport then success reconnects once", link: true,
			errs: []error{vfs.ENOTCONN, nil}, want: vfs.EOK, calls: 2, reconnects: 1},
		{name: "handle is reopened after the reconnect", link: true,
			errs: []error{vfs.ETIMEDOUT, nil}, reopen: forever(nil), want: vfs.EOK, calls: 2, reconnects: 1, reopens: 1},
		{name: "pushback then success never reconnects or reopens", link: true,
			errs: []error{vfs.EAGAIN, vfs.EAGAIN, nil}, reopen: forever(nil), want: vfs.EOK, calls: 3},
		{name: "pushback is retried without a Reconnector",
			errs: []error{vfs.EAGAIN, nil}, want: vfs.EOK, calls: 2},
		{name: "transport error with no recovery step surfaces unchanged",
			errs: forever(vfs.ENOTCONN), want: vfs.ENOTCONN, calls: 1},
		{name: "a reopen step alone is a recovery step",
			errs: []error{vfs.ENOTCONN, nil}, reopen: forever(nil), want: vfs.EOK, calls: 2, reopens: 1},
		{name: "Permanent from reopen aborts", link: true,
			errs: forever(vfs.ENOTCONN), reopen: forever(Permanent(vfs.ESTALE)), want: vfs.ESTALE, calls: 1, reconnects: 1, reopens: 1},
		{name: "failed reconnect consumes the attempt", link: true, linkDown: true,
			errs: forever(vfs.ENOTCONN), want: vfs.ETIMEDOUT, calls: 1, reconnects: 3, gaveUp: 1},
		{name: "standing transport error gives up with ETIMEDOUT", link: true,
			errs: forever(vfs.ENOTCONN), want: vfs.ETIMEDOUT, calls: 4, reconnects: 3, gaveUp: 1},
		{name: "standing pushback gives up with EAGAIN", link: true,
			errs: forever(vfs.EAGAIN), want: vfs.EAGAIN, calls: 4, gaveUp: 1},
		{name: "pushback after a reconnect still gives up with EAGAIN", link: true,
			errs: []error{vfs.ENOTCONN, vfs.EAGAIN}, want: vfs.EAGAIN, calls: 4, reconnects: 1, gaveUp: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fs vfs.FileSystem = plainFS{}
			link := &linkFS{down: tc.linkDown}
			if tc.link {
				fs = link
			}
			op := &script{errs: tc.errs}
			var reopen func() error
			reopens := &script{errs: tc.reopen}
			if tc.reopen != nil {
				reopen = reopens.op
			}
			p := testPolicy()
			reconnected, gaveUp := 0, 0
			p.OnReconnect = func() { reconnected++ }
			p.OnGiveUp = func() { gaveUp++ }

			err := p.Run(fs, op.op, reopen)
			if vfs.AsErrno(err) != tc.want {
				t.Errorf("Run = %v, want %v", err, tc.want)
			}
			if op.calls != tc.calls || link.reconnects != tc.reconnects || reopens.calls != tc.reopens || gaveUp != tc.gaveUp {
				t.Errorf("calls %d reconnects %d reopens %d gave up %d, want %d %d %d %d",
					op.calls, link.reconnects, reopens.calls, gaveUp, tc.calls, tc.reconnects, tc.reopens, tc.gaveUp)
			}
			succeeded := tc.reconnects
			if tc.linkDown {
				succeeded = 0
			}
			if reconnected != succeeded {
				t.Errorf("OnReconnect called %d times, want %d (successful reconnects only)", reconnected, succeeded)
			}
		})
	}
}

// Every retry withdraws one token — pushback and transport alike — a
// dry bucket stops the loop with the error's own give-up value, and
// success credits the bucket.
func TestRunChargesRetryBudget(t *testing.T) {
	budget := NewRetryBudget(5, 0.5)
	p := testPolicy()
	p.RetryBudget = budget

	op := &script{errs: []error{vfs.EAGAIN, vfs.ENOTCONN, nil}}
	if err := p.Run(&linkFS{}, op.op, nil); err != nil {
		t.Fatal(err)
	}
	if got := budget.Tokens(); got != 3.5 {
		t.Errorf("tokens after 2 retries and a success = %v, want 5 - 2 + 0.5", got)
	}

	p.Attempts = 10
	op = &script{errs: []error{vfs.EAGAIN}}
	if err := p.Run(plainFS{}, op.op, nil); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Fatalf("Run on a dry bucket = %v, want EAGAIN", err)
	}
	if op.calls != 4 || budget.Exhausted() != 1 {
		t.Errorf("calls %d, refused withdrawals %d; want 4 (1 + the 3 whole tokens left) and 1", op.calls, budget.Exhausted())
	}

	// A first-try success credits too.
	before := budget.Tokens()
	if err := p.Run(plainFS{}, (&script{errs: []error{nil}}).op, nil); err != nil {
		t.Fatal(err)
	}
	if got := budget.Tokens(); got != before+0.5 {
		t.Errorf("tokens after a clean success = %v, want %v", got, before+0.5)
	}
}

// An abandoned recovery is final: a driver stacked on a driver (Copy
// over an adapter mount, an adapter over an adapter) makes 1 + Attempts
// attempts in all, not (1 + Attempts)², and the caller still reads the
// errno.
func TestRunDoesNotRedriveAbandonedRecovery(t *testing.T) {
	for _, standing := range []vfs.Errno{vfs.ENOTCONN, vfs.EAGAIN} {
		op := &script{errs: []error{standing}}
		p := testPolicy()
		fs := &linkFS{}
		err := p.Run(fs, func() error { return p.Run(fs, op.op, nil) }, nil)
		want := vfs.ETIMEDOUT
		if standing == vfs.EAGAIN {
			want = vfs.EAGAIN
		}
		if vfs.AsErrno(err) != want {
			t.Errorf("nested Run over %v = %v, want %v", standing, err, want)
		}
		if op.calls != 1+p.Attempts {
			t.Errorf("nested Run over %v made %d attempts, want %d", standing, op.calls, 1+p.Attempts)
		}
	}
}

// A zero policy retries nothing and reports the error it saw, not a
// timeout: no recovery was attempted, so none was abandoned.
func TestRunZeroPolicyRunsOnceBare(t *testing.T) {
	op := &script{errs: []error{vfs.ENOTCONN}}
	if err := (Policy{}).Run(&linkFS{}, op.op, nil); vfs.AsErrno(err) != vfs.ENOTCONN || op.calls != 1 {
		t.Errorf("zero policy: %v after %d calls, want ENOTCONN after 1", err, op.calls)
	}
}

// The errno an abandoned recovery carries is what AsErrno reads, bare
// and wrapped, on the walk that allocates nothing.
func TestAsErrnoSeesAbandoned(t *testing.T) {
	for _, want := range []vfs.Errno{vfs.ETIMEDOUT, vfs.EAGAIN} {
		for _, err := range []error{abandoned{want}, fmt.Errorf("copy: %w", abandoned{want})} {
			if got := vfs.AsErrno(err); got != want {
				t.Errorf("AsErrno(%#v) = %v, want %v", err, got, want)
			}
		}
	}
}
