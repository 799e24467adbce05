package chirp

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// startServerCfg is startServer with the caller's admission knobs.
func startServerCfg(t *testing.T, cfg ServerConfig) *testServer {
	t.Helper()
	cfg.Name = "fs.sim"
	cfg.Owner = "hostname:owner.sim"
	cfg.Verifiers = []auth.Verifier{&auth.HostnameVerifier{}}
	srv, err := NewServer(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	l, err := nw.Listen("fs.sim")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	return &testServer{srv: srv, net: nw}
}

// queueDepth reports how many waiters sit in the admission queues.
func queueDepth(a *admission) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.high) + len(a.low)
}

func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth(a) < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The admission gate sheds immediately when the class queue is full and
// bounds queue waits with its own timeout, both as EAGAIN.
func TestAdmissionShedAndQueueTimeout(t *testing.T) {
	a := newAdmission(1, 1, 30*time.Millisecond, nil)
	if err := a.acquire(true); err != nil {
		t.Fatalf("first acquire = %v", err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(true) }()
	waitQueued(t, a, 1)
	// The bulk queue is full: the next bulk request is shed on the spot.
	if err := a.acquire(true); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Errorf("acquire with full queue = %v, want EAGAIN", err)
	}
	// The queued waiter's wait is bounded by the queue timeout.
	start := time.Now()
	if err := <-queued; vfs.AsErrno(err) != vfs.EAGAIN {
		t.Errorf("queued acquire = %v, want EAGAIN after timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("queue timeout took %v", elapsed)
	}
	// Releasing the slot restores immediate admission.
	a.release()
	if err := a.acquire(false); err != nil {
		t.Errorf("acquire after release = %v", err)
	}
	a.release()
}

// Under pressure, control-plane waiters are granted before bulk
// waiters even when the bulk request arrived first.
func TestAdmissionControlPlanePriority(t *testing.T) {
	a := newAdmission(1, 4, 5*time.Second, nil)
	// Fill the bulk slot and the reserved control headroom so both
	// classes are forced to queue.
	if err := a.acquire(true); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(false); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	go func() {
		if a.acquire(true) == nil {
			order <- "bulk"
		}
	}()
	waitQueued(t, a, 1)
	go func() {
		if a.acquire(false) == nil {
			order <- "control"
		}
	}()
	waitQueued(t, a, 2)
	a.release()
	if first := <-order; first != "control" {
		t.Errorf("first grant went to %s, want control", first)
	}
	// The bulk waiter needs total occupancy to drop below max=1: it is
	// granted only on the release that frees the last slot.
	a.release()
	a.release()
	if second := <-order; second != "bulk" {
		t.Errorf("second grant went to %s, want bulk", second)
	}
	a.release()
}

// Control-plane RPCs ride the reserved headroom: with every bulk slot
// streaming, a control request is admitted immediately instead of
// waiting out a bulk transfer — and the headroom itself is bounded, so
// a control-plane storm still sheds.
func TestAdmissionControlHeadroom(t *testing.T) {
	a := newAdmission(4, 4, 30*time.Millisecond, nil)
	for i := 0; i < 4; i++ {
		if err := a.acquire(true); err != nil {
			t.Fatalf("bulk acquire %d = %v", i, err)
		}
	}
	// Bulk is at capacity; the next bulk waiter queues, but control is
	// admitted at once through the max/4 reserved slots.
	if err := a.acquire(false); err != nil {
		t.Fatalf("control acquire with bulk at capacity = %v", err)
	}
	// Headroom exhausted too: the next control request queues and is
	// shed when the queue timeout lapses with nothing releasing.
	if err := a.acquire(false); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Errorf("control acquire past headroom = %v, want EAGAIN", err)
	}
	for i := 0; i < 5; i++ {
		a.release()
	}
}

// A drain fails queued-but-unstarted waiters promptly with ESHUTDOWN —
// not after the queue timeout — while the admitted holder is untouched.
func TestAdmissionDrainFailsQueued(t *testing.T) {
	a := newAdmission(1, 4, 10*time.Second, nil)
	if err := a.acquire(true); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(true) }()
	waitQueued(t, a, 1)
	start := time.Now()
	a.drain()
	if err := <-queued; vfs.AsErrno(err) != vfs.ESHUTDOWN {
		t.Errorf("queued acquire under drain = %v, want ESHUTDOWN", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("drain left the queued waiter hanging for %v", elapsed)
	}
	if err := a.acquire(false); vfs.AsErrno(err) != vfs.ESHUTDOWN {
		t.Errorf("acquire after drain = %v, want ESHUTDOWN", err)
	}
	a.release() // the holder finishes normally
}

// A server at MaxInflight sheds overflow with EAGAIN — explicit
// pushback, not a hang and not EIO — and recovers once the load passes.
func TestServerShedsWithEAGAIN(t *testing.T) {
	ts := startServerCfg(t, ServerConfig{
		MaxInflight:  1,
		QueueDepth:   1,
		QueueTimeout: 30 * time.Millisecond,
	})
	busy := ts.client(t, "owner.sim")
	probe := ts.client(t, "owner.sim")

	content := bytes.Repeat([]byte("x"), 64<<10)
	base := ts.srv.Stats.Requests.Load()
	putDone := make(chan error, 1)
	go func() {
		// 16 chunks x 15ms holds the only slot for ~240ms.
		putDone <- busy.PutFile("/slow", 0o644, int64(len(content)),
			&slowReader{data: content, chunk: 4 << 10, delay: 15 * time.Millisecond})
	}()
	for ts.srv.Stats.Requests.Load() == base {
		time.Sleep(time.Millisecond)
	}

	// A bulk probe queues behind the putfile and is shed when the queue
	// timeout lapses long before the slot frees.
	if _, err := probe.Checksum("/slow", ""); vfs.AsErrno(err) != vfs.EAGAIN {
		t.Errorf("bulk checksum under overload = %v, want EAGAIN", err)
	}
	if ts.srv.Stats.Shed.Load() == 0 {
		t.Error("no shed was recorded")
	}
	// A control-plane probe rides the reserved headroom: it answers
	// while the only bulk slot is still streaming.
	if _, err := probe.Stat("/"); err != nil {
		t.Errorf("stat under bulk overload = %v, want success via control headroom", err)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("admitted putfile failed: %v", err)
	}
	// Pressure gone: the same connection serves bulk again.
	if _, err := probe.Checksum("/slow", ""); err != nil {
		t.Errorf("checksum after overload = %v", err)
	}
}

// Shutdown with a full admission queue rejects queued-but-unstarted
// RPCs with ESHUTDOWN promptly; the in-flight RPC still finishes and
// its bytes are durable (satellite: drain vs. admission queue).
func TestShutdownFailsQueuedRPCsPromptly(t *testing.T) {
	ts := startServerCfg(t, ServerConfig{
		MaxInflight:  1,
		QueueTimeout: 10 * time.Second,
	})
	busy := ts.client(t, "owner.sim")
	waiter := ts.client(t, "owner.sim")

	content := bytes.Repeat([]byte("drain me "), 8<<10)
	base := ts.srv.Stats.Requests.Load()
	putDone := make(chan error, 1)
	go func() {
		putDone <- busy.PutFile("/big", 0o644, int64(len(content)),
			&slowReader{data: content, chunk: 4 << 10, delay: 10 * time.Millisecond})
	}()
	for ts.srv.Stats.Requests.Load() == base {
		time.Sleep(time.Millisecond)
	}

	sumDone := make(chan error, 1)
	go func() {
		// Bulk, so it queues for the busy slot rather than riding the
		// control-plane headroom.
		_, err := waiter.Checksum("/big", "")
		sumDone <- err
	}()
	waitQueued(t, ts.srv.admission, 1)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- ts.srv.Shutdown(ctx) }()

	// The queued checksum fails with ESHUTDOWN right away — it does not
	// sit out the 10s queue timeout, and it does not wait for the
	// putfile.
	if err := <-sumDone; vfs.AsErrno(err) != vfs.ESHUTDOWN {
		t.Errorf("queued checksum under shutdown = %v, want ESHUTDOWN", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("queued checksum stalled %v into shutdown", elapsed)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("in-flight putfile aborted by shutdown: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	got, err := vfs.ReadFile(ts.srv.FS(), "/big")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("acked putfile lost: %d bytes, want %d (%v)", len(got), len(content), err)
	}
}

// MaxSessions is a hard bound: connection N+1 is refused at the door
// and counted, and a freed session admits a new one.
func TestServerSessionCap(t *testing.T) {
	ts := startServerCfg(t, ServerConfig{MaxSessions: 1})
	first := ts.client(t, "owner.sim")
	if _, err := first.Stat("/"); err != nil {
		t.Fatal(err)
	}
	_, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     2 * time.Second,
	})
	if err == nil {
		t.Fatal("second session admitted past MaxSessions")
	}
	if ts.srv.Stats.SessionsRefused.Load() == 0 {
		t.Error("refused session not counted")
	}
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(ClientConfig{
			Dial: func() (net.Conn, error) {
				return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
			},
			Credentials: []auth.Credential{auth.HostnameCredential{}},
			Timeout:     2 * time.Second,
		})
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("freed session never readmitted: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// While a server is pushing back (EAGAIN), the pool must not dial new
// connections at it — growth would convert the shed into more offered
// load. When the window lapses, the same pressure grows the pool again.
func TestPoolPushbackSuppressesDial(t *testing.T) {
	ts := startServer(t, nil)
	p, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.notePushback(vfs.EAGAIN)
	p.mu.Lock()
	p.members[0].inflight++ // the sole member is busy: pressure to grow
	p.mu.Unlock()
	m, err := p.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Conns(); got != 1 {
		t.Errorf("pool grew to %d connections during pushback window", got)
	}
	p.release(m)
	// Close the window; non-EAGAIN errors must not reopen it.
	p.mu.Lock()
	p.pushbackUntil = time.Time{}
	p.mu.Unlock()
	p.notePushback(vfs.ENOENT)
	p.mu.Lock()
	windowOpen := time.Now().Before(p.pushbackUntil)
	p.mu.Unlock()
	if windowOpen {
		t.Error("ENOENT opened the pushback window")
	}
	m2, err := p.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Conns(); got != 2 {
		t.Errorf("pool stuck at %d connections after pushback window", got)
	}
	p.release(m2)
	p.mu.Lock()
	p.members[0].inflight--
	p.mu.Unlock()
}

// An expired deadline budget fast-rejects the governed request with
// ETIMEDOUT before any work runs, and the connection stays framed.
func TestDeadlineExpiredFastReject(t *testing.T) {
	ts := startServer(t, nil)
	// Timeout 0: no automatic prefix, the test arms budgets by hand.
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.rpc(&proto.Request{Verb: "deadline", Budget: 0}, nil, nil); err != nil {
		t.Fatalf("arm deadline: %v", err)
	}
	if _, err := c.Stat("/"); vfs.AsErrno(err) != vfs.ETIMEDOUT {
		t.Errorf("stat with lapsed budget = %v, want ETIMEDOUT", err)
	}
	if got := ts.srv.Stats.DeadlineRejects.Load(); got != 1 {
		t.Errorf("deadline rejects = %d, want 1", got)
	}
	// The deadline governed exactly one request; the next one is clean.
	if _, err := c.Stat("/"); err != nil {
		t.Errorf("stat after reject = %v", err)
	}
	// A negative budget is a protocol error.
	if _, err := c.rpc(&proto.Request{Verb: "deadline", Budget: -5}, nil, nil); vfs.AsErrno(err) != vfs.EINVAL {
		t.Errorf("negative budget = %v, want EINVAL", err)
	}
}

// Rejecting a one-phase data verb drains its already-committed body so
// the stream stays in sync: the putfile fails with ETIMEDOUT, nothing
// lands at rest, and the very next RPC works.
func TestDeadlineExpiredDrainsPutBody(t *testing.T) {
	ts := startServer(t, nil)
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.rpc(&proto.Request{Verb: "deadline", Budget: 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("late"), 8<<10)
	err = c.putFilePlain("/late", 0o644, int64(len(body)), bytes.NewReader(body))
	if vfs.AsErrno(err) != vfs.ETIMEDOUT {
		t.Fatalf("late putfile = %v, want ETIMEDOUT", err)
	}
	if _, err := c.Stat("/late"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("rejected putfile left bytes at rest: %v", err)
	}
	if err := vfs.WriteFile(c, "/after", []byte("ok"), 0o644); err != nil {
		t.Fatalf("connection desynced after rejected putfile: %v", err)
	}
}

// A bulk stream whose deadline lapses mid-transfer is aborted: the
// server stops pumping bytes nobody is waiting for and tears the
// connection down rather than desync it.
func TestDeadlineAbortsMidStream(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "pipe.sim",
		Owner:     "hostname:peer",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{Resolve: func(string) string { return "peer" }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("streamed body "), 75<<10) // ~1 MiB
	if err := vfs.WriteFile(srv.FS(), "/big", content, 0o644); err != nil {
		t.Fatal(err)
	}
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c, err := Dial(ClientConfig{
		Dial:        func() (net.Conn, error) { return cliConn, nil },
		Credentials: []auth.Credential{auth.HostnameCredential{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.rpc(&proto.Request{Verb: "deadline", Budget: 50}, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The slow sink keeps the body in flight past the 50ms budget (it is
	// written one 256 KiB window at a time, four for this body); the
	// server's per-chunk deadline check must cut the stream off.
	var sink bytes.Buffer
	_, err = c.GetFile("/big", &slowWriter{w: &sink, delay: 40 * time.Millisecond})
	if err == nil {
		t.Fatal("getfile past its deadline completed")
	}
	if srv.Stats.DeadlineRejects.Load() == 0 {
		t.Error("mid-stream abort not counted")
	}
	if sink.Len() >= len(content) {
		t.Error("full body delivered despite abort")
	}
}

// Against a current server the prefix negotiates silently: RPCs
// succeed, the client keeps sending budgets, and nothing is rejected
// while the budgets are generous.
func TestDeadlinePrefixNegotiated(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c, "/f", []byte("budgeted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadFile(c, "/f"); err != nil {
		t.Fatal(err)
	}
	if !c.supports(proto.Deadline) {
		t.Error("client downgraded against a deadline-capable server")
	}
	if got := ts.srv.Stats.DeadlineRejects.Load(); got != 0 {
		t.Errorf("generous budgets produced %d rejects", got)
	}
}
