package adapter

import (
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/obs"
	"tss/internal/vfs"
)

// shedFS fails the next N Stat calls with EAGAIN and counts Reconnect
// attempts, modeling a server that is shedding load while its
// transport stays perfectly healthy.
type shedFS struct {
	vfs.FileSystem
	fails      atomic.Int32
	reconnects atomic.Int32
}

func (s *shedFS) Stat(path string) (vfs.FileInfo, error) {
	if s.fails.Add(-1) >= 0 {
		return vfs.FileInfo{}, vfs.EAGAIN
	}
	return s.FileSystem.Stat(path)
}

func (s *shedFS) Reconnect() error {
	s.reconnects.Add(1)
	return nil
}

// EAGAIN is pushback, not a dead connection: the adapter must back
// off and retry in place, never reconnect (dialing at a shedding
// server only adds load).
func TestPushbackRetriedWithoutReconnect(t *testing.T) {
	fs := &shedFS{FileSystem: localFS(t)}
	var sleeps atomic.Int32
	a := New(Config{MaxRetries: 5, Sleep: func(time.Duration) { sleeps.Add(1) }})
	if err := a.MountFS("/srv", fs); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.fails.Store(2)
	if _, err := a.Stat("/srv/f"); err != nil {
		t.Fatalf("stat through pushback = %v, want success after retries", err)
	}
	if got := sleeps.Load(); got != 2 {
		t.Errorf("slept %d times, want 2 (one backoff per shed reply)", got)
	}
	if got := fs.reconnects.Load(); got != 0 {
		t.Errorf("pushback provoked %d reconnects, want 0", got)
	}
	if got := a.Stats.Reconnects.Load(); got != 0 {
		t.Errorf("Stats.Reconnects = %d, want 0", got)
	}
}

// When retries run out with the server still shedding, EAGAIN itself
// surfaces — mapping it to ETIMEDOUT would hide the overload signal
// from callers (DESIGN.md §6).
func TestPushbackExhaustionSurfacesEAGAIN(t *testing.T) {
	fs := &shedFS{FileSystem: localFS(t)}
	a := New(Config{MaxRetries: 3, Sleep: noSleep})
	if err := a.MountFS("/srv", fs); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.fails.Store(100)
	if _, err := a.Stat("/srv/f"); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Fatalf("exhausted pushback = %v, want EAGAIN", err)
	}
	if got := a.Stats.GaveUp.Load(); got != 1 {
		t.Errorf("Stats.GaveUp = %d, want 1", got)
	}
}

// The retry budget caps aggregate retry volume below MaxRetries: once
// the bucket is empty the loop stops immediately and the exhaustion
// is counted in stats and the resilient.budget_exhausted metric.
func TestRetryBudgetBoundsRetryVolume(t *testing.T) {
	fs := &shedFS{FileSystem: localFS(t)}
	reg := obs.NewRegistry()
	var sleeps atomic.Int32
	a := New(Config{
		MaxRetries:  8,
		RetryTokens: 2,
		Sleep:       func(time.Duration) { sleeps.Add(1) },
		Metrics:     reg,
	})
	if err := a.MountFS("/srv", fs); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.fails.Store(100)
	if _, err := a.Stat("/srv/f"); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Fatalf("budget-capped pushback = %v, want EAGAIN", err)
	}
	if got := sleeps.Load(); got != 2 {
		t.Errorf("slept %d times, want 2 (budget of 2 tokens)", got)
	}
	if got := a.Stats.BudgetExhausted.Load(); got != 1 {
		t.Errorf("Stats.BudgetExhausted = %d, want 1", got)
	}
	if got := reg.Counter("resilient.budget_exhausted").Load(); got != 1 {
		t.Errorf("resilient.budget_exhausted = %d, want 1", got)
	}
	// Successes refill the bucket: after the window of shedding ends,
	// operations succeed and slowly earn back retry allowance.
	fs.fails.Store(0)
	if _, err := a.Stat("/srv/f"); err != nil {
		t.Fatalf("stat after shedding = %v", err)
	}
	if tokens := a.RetryBudgetTokens(); tokens <= 0 {
		t.Errorf("budget tokens after success = %v, want > 0", tokens)
	}
}

// noLinkFS sheds like shedFS but cannot reconnect, like a local
// directory or any layer that forwards no Reconnector.
type noLinkFS struct {
	vfs.FileSystem
	fails atomic.Int32
}

func (s *noLinkFS) Stat(path string) (vfs.FileInfo, error) {
	if s.fails.Add(-1) >= 0 {
		return vfs.FileInfo{}, vfs.EAGAIN
	}
	return s.FileSystem.Stat(path)
}

// Pushback needs no reconnect, so a path verb backs off and retries it
// whether or not the filesystem could reconnect — as the handle verbs
// on the same mount always did.
func TestPushbackRetriedWithoutReconnector(t *testing.T) {
	fs := &noLinkFS{FileSystem: localFS(t)}
	if vfs.Capabilities(fs).Reconnector != nil {
		t.Fatal("the fixture can reconnect; the test would prove nothing")
	}
	a := New(Config{MaxRetries: 5, Sleep: noSleep})
	if err := a.MountFS("/srv", fs); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.fails.Store(2)
	if _, err := a.Stat("/srv/f"); err != nil {
		t.Fatalf("stat through pushback = %v, want success after retries", err)
	}
	if got := a.Stats.Retries.Load(); got != 2 {
		t.Errorf("Stats.Retries = %d, want 2 (one per shed reply)", got)
	}
	fs.fails.Store(100)
	if _, err := a.Stat("/srv/f"); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Fatalf("exhausted pushback = %v, want EAGAIN", err)
	}
	if got := a.Stats.GaveUp.Load(); got != 1 {
		t.Errorf("Stats.GaveUp = %d, want 1", got)
	}
}

// nopFS answers every verb with success and no work, so what is left to
// measure is the adapter.
type nopFS struct{ vfs.FileSystem }

func (nopFS) Stat(path string) (vfs.FileInfo, error) {
	if path == "/absent" {
		return vfs.FileInfo{}, vfs.ENOENT
	}
	return vfs.FileInfo{}, nil
}
func (nopFS) Open(string, int, uint32) (vfs.File, error) { return nopFile{}, nil }

type nopFile struct{ vfs.File }

func (nopFile) Pread(p []byte, off int64) (int, error) { return len(p), nil }
func (nopFile) Fstat() (vfs.FileInfo, error)           { return vfs.FileInfo{}, nil }
func (nopFile) Close() error                           { return nil }

// The recovery protocol costs the success path nothing: the driver's
// closures and hooks are built on the first failure or once per
// adapter, never per call. smallio_rw is 14 allocations an operation
// end to end, so one stray closure here is a 7 % regression.
func TestRecoveryAllocationGuards(t *testing.T) {
	a := New(Config{Metrics: obs.NewRegistry(), RetryTokens: 10})
	if err := a.MountFS("/srv", nopFS{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := a.Stat("/srv/f"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Adapter.Stat allocates %.1f/op on the success path, want 0", n)
	}
	// A semantic error is classified and returned; nothing is probed or
	// built for it. sp5 fails four search-path stats per unit. (The two
	// are errors.As looking for the errno, twice, as on the parent.)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := a.Stat("/srv/absent"); err != vfs.ENOENT {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Adapter.Stat allocates %.1f/op on ENOENT, want at most 2", n)
	}
	f, err := a.Open("/srv/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8192)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.Pread(buf, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("adapterFile.Pread allocates %.1f/op on the success path, want 0 (the parent paid 1)", n)
	}
}
