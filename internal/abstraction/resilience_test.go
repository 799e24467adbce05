package abstraction

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tss/internal/adapter"
	"tss/internal/faultfs"
	"tss/internal/obs"
	"tss/internal/obs/obstest"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// resilientMirror builds a two-replica mirror over fault-injected
// local filesystems with a deterministic (jitter-free) breaker.
func resilientMirror(t *testing.T, opts MirrorOptions) (*MirrorFS, *faultfs.FS, *faultfs.FS) {
	t.Helper()
	if opts.Breaker.Threshold == 0 {
		opts.Breaker.Threshold = 3
	}
	if opts.Breaker.Jitter == 0 {
		opts.Breaker.Jitter = -1
	}
	a := faultfs.New(localFS(t))
	b := faultfs.New(localFS(t))
	m, err := NewMirrorOptions(opts, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, b
}

// The acceptance property of the health layer: once replica 0's
// breaker opens, reads must not pay the dead replica's latency on
// every operation — the dead replica sees at most one probe per
// re-probe interval, not one attempt per read.
func TestMirrorBreakerStopsPayingDeadReplica(t *testing.T) {
	const reprobe = 300 * time.Millisecond
	m, a, _ := resilientMirror(t, MirrorOptions{
		Breaker: resilient.BreakerConfig{Threshold: 3, ReprobeBase: reprobe, ReprobeMax: time.Second, Jitter: -1},
	})
	if err := vfs.WriteFile(m, "/f", []byte("replicated"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.SetDown(true)
	a.SetLatency(20 * time.Millisecond) // the dead replica charges a timeout

	// Three failing opens trip replica 0's breaker.
	for i := 0; i < 3; i++ {
		if data, err := vfs.ReadFile(m, "/f"); err != nil || string(data) != "replicated" {
			t.Fatalf("read %d while tripping: %q, %v", i, data, err)
		}
	}
	if st := m.Health()[0]; st.State != resilient.Open {
		t.Fatalf("replica 0 breaker = %v after %d failures, want open", st.State, 3)
	}
	if got := m.Stats.Trips.Load(); got != 1 {
		t.Errorf("trips = %d, want 1", got)
	}

	callsAtTrip := a.Calls()
	start := time.Now()
	const reads = 30
	for i := 0; i < reads; i++ {
		if data, err := vfs.ReadFile(m, "/f"); err != nil || string(data) != "replicated" {
			t.Fatalf("read %d with breaker open: %q, %v", i, data, err)
		}
	}
	elapsed := time.Since(start)

	// Attempts against the dead replica are bounded by the probe
	// schedule, not the read count.
	probesAllowed := int64(elapsed/reprobe) + 1
	if extra := a.Calls() - callsAtTrip; extra > probesAllowed {
		t.Errorf("dead replica saw %d attempts over %v (max %d probes allowed)", extra, elapsed, probesAllowed)
	}
	// And the reads themselves never waited on the dead replica: 30
	// reads at 20ms each would cost 600ms if they had.
	if elapsed > reads*20*time.Millisecond/2 {
		t.Errorf("%d reads took %v: still paying the dead replica's latency", reads, elapsed)
	}
}

// A replica that comes back is re-admitted automatically by a
// half-open probe — no manual intervention, as §6 demands of recovery.
func TestMirrorReadmitsRecoveredReplica(t *testing.T) {
	m, a, _ := resilientMirror(t, MirrorOptions{
		Breaker: resilient.BreakerConfig{Threshold: 3, ReprobeBase: 30 * time.Millisecond, ReprobeMax: 100 * time.Millisecond, Jitter: -1},
	})
	if err := vfs.WriteFile(m, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.SetDown(true)
	for i := 0; i < 3; i++ {
		if _, err := vfs.ReadFile(m, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Health()[0]; st.State != resilient.Open {
		t.Fatalf("breaker = %v, want open", st.State)
	}

	a.SetDown(false) // server restored
	deadline := time.Now().Add(5 * time.Second)
	for m.Health()[0].State != resilient.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 not re-admitted; health = %+v", m.Health()[0])
		}
		// Regular traffic piggybacks the probe schedule.
		if _, err := vfs.ReadFile(m, "/f"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.Stats.Readmits.Load(); got < 1 {
		t.Errorf("readmits = %d, want >= 1", got)
	}
	// Re-admitted means the replica serves reads again.
	before := a.Calls()
	if _, err := vfs.ReadFile(m, "/f"); err != nil {
		t.Fatal(err)
	}
	if a.Calls() == before {
		t.Error("re-admitted replica got no traffic")
	}
}

// With hedging enabled, a slow-but-alive replica does not hold a read
// hostage: after the hedge delay the next healthy replica races it and
// the fast answer wins.
func TestMirrorHedgedReadWins(t *testing.T) {
	m, a, _ := resilientMirror(t, MirrorOptions{Hedge: 10 * time.Millisecond})
	if err := vfs.WriteFile(m, "/f", []byte("fast answer"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.SetLatency(500 * time.Millisecond) // alive, but glacial

	start := time.Now()
	data, err := vfs.ReadFile(m, "/f")
	elapsed := time.Since(start)
	if err != nil || string(data) != "fast answer" {
		t.Fatalf("hedged read: %q, %v", data, err)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("hedged read took %v: waited out the slow replica", elapsed)
	}
	if m.Stats.Hedges.Load() < 1 {
		t.Error("no hedge was launched")
	}
	if m.Stats.HedgeWins.Load() < 1 {
		t.Error("hedge launched but never won")
	}
}

// ESTALE is a replica failure, not a request failure: a replica that
// restarted and invalidated its handles is skipped — but it does not
// feed the breaker, because its server demonstrably answers.
func TestMirrorEstaleFailsOver(t *testing.T) {
	m, a, _ := resilientMirror(t, MirrorOptions{})
	if err := vfs.WriteFile(m, "/f", []byte("good copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.SetError(vfs.ESTALE)
	a.SetDown(true)
	for i := 0; i < 5; i++ {
		if data, err := vfs.ReadFile(m, "/f"); err != nil || string(data) != "good copy" {
			t.Fatalf("read %d over stale replica: %q, %v", i, data, err)
		}
	}
	// Semantic proof of reachability: the breaker stays closed.
	if st := m.Health()[0]; st.State != resilient.Closed || st.Trips != 0 {
		t.Errorf("stale replica breaker = %+v, want closed with no trips", st)
	}
}

// A read-mode mirror file whose replica dies mid-read fails over to
// another replica by reopening there — the caller never notices.
func TestMirrorFileFailsOverMidRead(t *testing.T) {
	m, a, _ := resilientMirror(t, MirrorOptions{})
	if err := vfs.WriteFile(m, "/f", []byte("survives failover"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	if _, err := f.Pread(buf, 0); err != nil {
		t.Fatal(err)
	}
	a.SetDown(true) // the replica backing the open file dies
	n, err := f.Pread(buf, 9)
	if err != nil || string(buf[:n]) != "failover" {
		t.Fatalf("pread after replica death: %q, %v", buf[:n], err)
	}
}

// With every breaker open, operations fail fast with ENOTCONN instead
// of probing every dead replica in sequence.
func TestMirrorFastFailWhenAllOpen(t *testing.T) {
	m, a, b := resilientMirror(t, MirrorOptions{
		Breaker: resilient.BreakerConfig{Threshold: 1, ReprobeBase: time.Hour, ReprobeMax: time.Hour, Jitter: -1},
	})
	a.SetDown(true)
	b.SetDown(true)
	if _, err := vfs.ReadFile(m, "/f"); !resilient.TransportError(err) {
		t.Fatalf("read with both down = %v, want transport error", err)
	}
	if _, err := vfs.ReadFile(m, "/f"); vfs.AsErrno(err) != vfs.ENOTCONN {
		t.Fatalf("read with breakers open = %v, want ENOTCONN", err)
	}
	callsA, callsB := a.Calls(), b.Calls()
	for i := 0; i < 10; i++ {
		if _, err := vfs.ReadFile(m, "/f"); vfs.AsErrno(err) != vfs.ENOTCONN {
			t.Fatalf("fast-fail read = %v", err)
		}
	}
	if a.Calls() != callsA || b.Calls() != callsB {
		t.Errorf("fast-fail reads still touched dead replicas (%d, %d attempts)",
			a.Calls()-callsA, b.Calls()-callsB)
	}
	if m.Stats.FastFails.Load() == 0 {
		t.Error("FastFails counter never moved")
	}
}

// The stripe does not retry; mounted under the adapter — the one retry
// site — a member's flaky window shorter than the attempt budget is
// invisible to the caller, one longer than the budget surfaces as
// ETIMEDOUT, and each logical operation costs the failing member at
// most 1 + MaxRetries calls.
func TestStripeRetriesFlakyMember(t *testing.T) {
	meta := localFS(t)
	m0 := faultfs.New(localFS(t))
	m1 := faultfs.New(localFS(t))
	stripe, err := NewStriped(meta, []DataServer{
		{Name: "s0", FS: m0},
		{Name: "s1", FS: m1},
	}, StripeOptions{StripeSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	const maxRetries = 3
	s := adapter.New(adapter.Config{MaxRetries: maxRetries, RetryBase: time.Millisecond, Sleep: func(time.Duration) {}})
	if err := s.MountFS("/", stripe); err != nil {
		t.Fatal(err)
	}
	content := []byte("0123456789abcdef")
	if err := vfs.WriteFile(s, "/f", content, 0o644); err != nil {
		t.Fatal(err)
	}

	// A brown-out of 2 consecutive failures: absorbed by the retries.
	m0.FailNext(2)
	data, err := vfs.ReadFile(s, "/f")
	if err != nil || string(data) != string(content) {
		t.Fatalf("read through flaky window: %q, %v", data, err)
	}
	if m0.Calls() == 0 {
		t.Fatal("member 0 never attempted")
	}

	// A brown-out longer than the attempt budget: gives up with
	// ETIMEDOUT, the §6 errno for abandoned recovery.
	m0.FailNext(100)
	if _, err := vfs.ReadFile(s, "/f"); vfs.AsErrno(err) != vfs.ETIMEDOUT {
		t.Fatalf("read past retry budget = %v, want ETIMEDOUT", err)
	}
	// No layer below the adapter multiplies its attempts.
	before := m0.Calls()
	if _, err := s.Stat("/f"); vfs.AsErrno(err) != vfs.ETIMEDOUT {
		t.Fatalf("stat past retry budget = %v, want ETIMEDOUT", err)
	}
	if calls := m0.Calls() - before; calls != 1+maxRetries {
		t.Errorf("one stat cost the failing member %d calls, want %d (1 + MaxRetries)", calls, 1+maxRetries)
	}
	m0.FailNext(0) // window closed: service restored
	if data, err := vfs.ReadFile(s, "/f"); err != nil || string(data) != string(content) {
		t.Fatalf("read after recovery: %q, %v", data, err)
	}
}

// reconnectFS models the chirp client's transport contract: once the
// connection drops, every operation returns ENOTCONN until someone
// calls Reconnect while the server is up — the client never redials on
// its own (§6: recovery belongs to the caller).
type reconnectFS struct {
	vfs.FileSystem
	mu        sync.Mutex
	up        bool // the server side is alive
	connected bool // the client side has a live connection
}

func (r *reconnectFS) ok() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.connected {
		return vfs.ENOTCONN
	}
	return nil
}

func (r *reconnectFS) Reconnect() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.up {
		return vfs.ENOTCONN
	}
	r.connected = true
	return nil
}

func (r *reconnectFS) kill() {
	r.mu.Lock()
	r.up, r.connected = false, false
	r.mu.Unlock()
}

func (r *reconnectFS) restore() {
	r.mu.Lock()
	r.up = true // the connection stays down until Reconnect
	r.mu.Unlock()
}

func (r *reconnectFS) Stat(path string) (vfs.FileInfo, error) {
	if err := r.ok(); err != nil {
		return vfs.FileInfo{}, err
	}
	return r.FileSystem.Stat(path)
}

func (r *reconnectFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	if err := r.ok(); err != nil {
		return nil, err
	}
	return r.FileSystem.Open(path, flags, mode)
}

// A replica behind a connection-oriented client (chirp) is only
// re-admitted if the health probe re-establishes the transport first:
// the server coming back does not revive a dropped connection, so the
// default probe must call Reconnect before asking for proof of life.
func TestMirrorProbeReconnectsBackend(t *testing.T) {
	a := &reconnectFS{FileSystem: localFS(t), up: true, connected: true}
	b := localFS(t)
	m, err := NewMirrorOptions(MirrorOptions{
		Breaker: resilient.BreakerConfig{Threshold: 2, ReprobeBase: 20 * time.Millisecond, ReprobeMax: 50 * time.Millisecond, Jitter: -1},
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	a.kill()
	for i := 0; i < 2; i++ {
		if _, err := vfs.ReadFile(m, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Health()[0]; st.State != resilient.Open {
		t.Fatalf("breaker = %v, want open", st.State)
	}

	// The server returns, but the client-side connection is still dead:
	// only a probe that reconnects can bring the replica back.
	a.restore()
	deadline := time.Now().Add(5 * time.Second)
	for m.Health()[0].State != resilient.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-admitted: probe did not reconnect; health = %+v", m.Health()[0])
		}
		if _, err := vfs.ReadFile(m, "/f"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Stats.Readmits.Load() < 1 {
		t.Errorf("readmits = %d, want >= 1", m.Stats.Readmits.Load())
	}
}

// TestConcurrentMirrorReadsWithMetrics drives parallel open/pread/close
// cycles through a mirror wired to a metrics registry, so the race
// detector sees the mirror's metric emission under concurrent reads; a
// healthy pair of replicas must serve every read and trip no breaker.
// After a scrub, every MirrorStats field is the registry's own series.
func TestConcurrentMirrorReadsWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	data := bytes.Repeat([]byte("x"), 8192)
	var replicas []vfs.FileSystem
	for i := 0; i < 2; i++ {
		lfs := localFS(t)
		if err := vfs.WriteFile(lfs, "/data", data, 0o644); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, lfs)
	}
	m, err := NewMirrorOptions(MirrorOptions{Metrics: reg}, replicas...)
	if err != nil {
		t.Fatal(err)
	}

	const readers, reads = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(data))
			for i := 0; i < reads; i++ {
				f, err := m.Open("/data", vfs.O_RDONLY, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if n, err := f.Pread(buf, 0); err != nil || !bytes.Equal(buf[:n], data) {
					t.Errorf("pread = %d, %v; want the %d bytes written", n, err, len(data))
				}
				f.Close()
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	for _, name := range []string{"mirror.trips", "mirror.fast_fails"} {
		if v, ok := s.Counters[name]; !ok || v != 0 {
			t.Errorf("%s = %d (registered %v), want 0 on healthy replicas", name, v, ok)
		}
	}
	for i := range replicas {
		name := fmt.Sprintf("mirror.replica%d.breaker_state", i)
		if v, ok := s.Gauges[name]; !ok || v != int64(resilient.Closed) {
			t.Errorf("%s = %d (registered %v), want closed", name, v, ok)
		}
	}
	if _, err := m.Scrub(context.Background(), ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.Stats.ScrubFiles.Load() == 0 {
		t.Error("scrub examined no files")
	}
	obstest.SameStore(t, reg, m.Stats, mirrorSeries)
}

// mirrorSeries names the registry series behind each MirrorStats field.
var mirrorSeries = map[string]string{
	"Trips":              "mirror.trips",
	"Probes":             "mirror.probes",
	"Readmits":           "mirror.readmits",
	"Hedges":             "mirror.hedges",
	"HedgeWins":          "mirror.hedge_wins",
	"HedgeLosses":        "mirror.hedge_losses",
	"FastFails":          "mirror.fast_fails",
	"Pushbacks":          "mirror.pushbacks",
	"IntegrityFailovers": "mirror.integrity_failover",
	"ScrubFiles":         "mirror.scrub_files",
	"ScrubDivergent":     "mirror.scrub_divergent",
	"ScrubRepaired":      "mirror.scrub_repaired",
}
