package resilient

import (
	"testing"
	"time"

	"tss/internal/obs"
	"tss/internal/vfs"
)

// TestNewPolicyValidation: what a user can mistype on a command line is
// rejected by Validate before a new policy is used.
func TestNewPolicyValidation(t *testing.T) {
	ok := Policy{Attempts: 2, Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid policy: %v", err)
	}
	bad := map[string]func(*Policy){
		"negative attempts": func(p *Policy) { p.Attempts = -1 },
		"zero base":         func(p *Policy) { p.Base = 0 },
		"negative base":     func(p *Policy) { p.Base = -time.Second },
		"negative max":      func(p *Policy) { p.Max = -time.Second },
		"max below base":    func(p *Policy) { p.Base, p.Max = time.Second, time.Millisecond },
	}
	for name, mutate := range bad {
		p := ok
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Max 0 means uncapped and must pass the cross-check; so does
	// "run once".
	p := ok
	p.Max, p.Attempts = 0, 0
	if err := p.Validate(); err != nil {
		t.Errorf("uncapped run-once policy: %v", err)
	}
}

func TestZeroValuePolicyStillRetriesNothing(t *testing.T) {
	calls := 0
	err, exhausted := (Policy{}).Do(func() error {
		calls++
		return vfs.ENOTCONN
	}, nil, Retryable)
	if calls != 1 || !exhausted || err == nil {
		t.Errorf("zero policy: calls=%d exhausted=%v err=%v, want 1/true/non-nil", calls, exhausted, err)
	}
}

// TestBreakerStateChangeGauge walks a breaker through the full
// closed→open→half-open→closed lifecycle and checks that an
// OnStateChange observer wiring an obs.Gauge sees every transition —
// the hookup the mirror uses for "<layer>.replica<i>.breaker_state".
func TestBreakerStateChangeGauge(t *testing.T) {
	reg := obs.NewRegistry()
	gauge := reg.Gauge("replica0.breaker_state")
	var transitions [][2]State
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{
		Threshold:   2,
		ReprobeBase: time.Second,
		Jitter:      -1,
		Now:         clk.now,
		OnStateChange: func(from, to State) {
			transitions = append(transitions, [2]State{from, to})
			gauge.Set(int64(to))
		},
	})

	if gauge.Value() != int64(Closed) {
		t.Fatalf("initial gauge = %d", gauge.Value())
	}
	// Two consecutive transport failures trip the breaker.
	b.Record(vfs.ENOTCONN)
	if gauge.Value() != int64(Closed) {
		t.Fatal("gauge moved before threshold")
	}
	if !b.Record(vfs.ENOTCONN) {
		t.Fatal("threshold failure did not trip")
	}
	if gauge.Value() != int64(Open) {
		t.Fatalf("gauge after trip = %d, want %d (open)", gauge.Value(), Open)
	}

	// The re-probe delay elapses; winning the probe is half-open.
	clk.advance(2 * time.Second)
	if !b.TryProbe() {
		t.Fatal("probe not granted after re-probe delay")
	}
	if gauge.Value() != int64(HalfOpen) {
		t.Fatalf("gauge during probe = %d, want %d (half-open)", gauge.Value(), HalfOpen)
	}

	// A failed probe re-opens with a doubled delay...
	b.RecordProbe(vfs.ENOTCONN)
	if gauge.Value() != int64(Open) {
		t.Fatalf("gauge after failed probe = %d, want %d (open)", gauge.Value(), Open)
	}
	// ...and a successful probe after the next window re-admits.
	clk.advance(3 * time.Second)
	if !b.TryProbe() {
		t.Fatal("second probe not granted")
	}
	if !b.RecordProbe(nil) {
		t.Fatal("successful probe did not re-admit")
	}
	if gauge.Value() != int64(Closed) {
		t.Fatalf("gauge after re-admit = %d, want %d (closed)", gauge.Value(), Closed)
	}

	want := [][2]State{
		{Closed, Open},
		{Open, HalfOpen},
		{HalfOpen, Open},
		{Open, HalfOpen},
		{HalfOpen, Closed},
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
}

// TestBreakerObserverMayReenter guards the documented contract that
// OnStateChange runs outside the breaker's lock.
func TestBreakerObserverMayReenter(t *testing.T) {
	var b *Breaker
	b = NewBreaker(BreakerConfig{
		Threshold: 1,
		OnStateChange: func(from, to State) {
			_ = b.State() // would deadlock if called under the lock
		},
	})
	b.Record(vfs.ENOTCONN)
	if b.State() != Open {
		t.Fatal("breaker did not open")
	}
}
