package chirp

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// pool dials a pooled transport against the test server over unshaped
// links.
func (ts *testServer) pool(t *testing.T, host string, size int, idle time.Duration) *Pool {
	return ts.poolOn(t, host, size, idle, netsim.Loopback)
}

// poolOn dials a pooled transport through links with the given profile.
func (ts *testServer) poolOn(t *testing.T, host string, size int, idle time.Duration, prof netsim.LinkProfile) *Pool {
	t.Helper()
	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom(host, "fs.sim", prof)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    size,
		IdleTimeout: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// preadAll reads the whole file through f in one Pread.
func preadAll(t *testing.T, f vfs.File, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got, err := f.Pread(buf, 0)
	if err != nil {
		t.Fatalf("pread: %v", err)
	}
	return buf[:got]
}

// Descriptor RPCs must travel on the connection that opened the fd:
// every server session numbers descriptors from 1 independently, so the
// same fd number names a different file on every pooled connection. A
// misrouted pread would read the wrong file's bytes.
func TestPoolFDAffinity(t *testing.T) {
	ts := startServer(t, nil)
	single := ts.client(t, "owner.sim")
	p := ts.pool(t, "owner.sim", 4, 0)

	const files = 8
	contents := make([][]byte, files)
	for i := 0; i < files; i++ {
		contents[i] = bytes.Repeat([]byte{byte('a' + i)}, 512)
		if err := vfs.WriteFile(single, fmt.Sprintf("/f%d", i), contents[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Holding every file open forces the pool to spread descriptors
	// across members (open placement is least-loaded), guaranteeing
	// colliding fd numbers on different connections.
	fds := make([]vfs.File, files)
	for i := range fds {
		f, err := p.Open(fmt.Sprintf("/f%d", i), vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = f
	}
	if got := p.Conns(); got < 2 {
		t.Fatalf("pool did not grow under descriptor load: %d conns", got)
	}

	for i, f := range fds {
		if got := preadAll(t, f, 1024); !bytes.Equal(got, contents[i]) {
			t.Errorf("fd %d read %q..., want %q...", i, got[:8], contents[i][:8])
		}
		fi, err := f.Fstat()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Name != fmt.Sprintf("f%d", i) || fi.Size != 512 {
			t.Errorf("fd %d fstat = %+v", i, fi)
		}
	}
	for _, f := range fds {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A member connection dropping mid-use fences only that member's
// descriptors; files opened on other members keep working, and
// Reconnect repairs exactly the dead member.
func TestPoolAffinitySurvivesMemberDrop(t *testing.T) {
	ts := startServer(t, nil)
	single := ts.client(t, "owner.sim")
	p := ts.pool(t, "owner.sim", 2, 0)

	if err := vfs.WriteFile(single, "/a", []byte("alpha-data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(single, "/b", []byte("bravo-data"), 0o644); err != nil {
		t.Fatal(err)
	}
	fa, err := p.Open("/a", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := p.Open("/b", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := fa.(*poolFile).m, fb.(*poolFile).m
	if ma == mb {
		t.Fatal("both descriptors placed on one member; cannot exercise isolation")
	}

	// Sever member A's transport out from under it, as a network
	// partition would.
	ma.c.mu.Lock()
	conn := ma.c.conn
	ma.c.mu.Unlock()
	conn.Close()

	if _, err := fa.Pread(make([]byte, 16), 0); vfs.AsErrno(err) != vfs.ENOTCONN {
		t.Fatalf("pread on severed member = %v, want ENOTCONN", err)
	}
	// The other member's descriptor is untouched.
	if got := preadAll(t, fb, 64); string(got) != "bravo-data" {
		t.Errorf("healthy member read %q", got)
	}
	if got := p.Conns(); got != 1 {
		t.Fatalf("after drop: %d live conns, want 1", got)
	}

	if err := p.Reconnect(); err != nil {
		t.Fatalf("Reconnect = %v", err)
	}
	if got := p.Conns(); got != 2 {
		t.Fatalf("after repair: %d live conns, want 2", got)
	}
	// Generation fencing: the old descriptor stays dead after repair...
	if _, err := fa.Pread(make([]byte, 16), 0); vfs.AsErrno(err) != vfs.ENOTCONN {
		t.Errorf("stale fd after reconnect = %v, want ENOTCONN", err)
	}
	// ...and the healthy member's descriptor still works.
	if got := preadAll(t, fb, 64); string(got) != "bravo-data" {
		t.Errorf("healthy member read after repair %q", got)
	}
	// Re-opening on the repaired pool works.
	fa2, err := p.Open("/a", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := preadAll(t, fa2, 64); string(got) != "alpha-data" {
		t.Errorf("reopened read %q", got)
	}
	fa.Close()
	fb.Close()
	fa2.Close()
}

// Eight goroutines hammer open/pread/close and stateless RPCs through
// one pool; run under -race this is the dispatcher's data-race and
// accounting test.
func TestPoolConcurrentStorm(t *testing.T) {
	ts := startServer(t, nil)
	single := ts.client(t, "owner.sim")
	// A latency-shaped link keeps members visibly busy, so the storm
	// also exercises lazy growth concurrent with dispatch.
	p := ts.poolOn(t, "owner.sim", 4, 0, netsim.LinkProfile{Latency: 500 * time.Microsecond})

	const files = 4
	contents := make([][]byte, files)
	for i := 0; i < files; i++ {
		contents[i] = bytes.Repeat([]byte{byte('A' + i)}, 256)
		if err := vfs.WriteFile(single, fmt.Sprintf("/s%d", i), contents[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("/s%d", (g+i)%files)
				if i%5 == 0 {
					if _, err := p.Stat(name); err != nil {
						errs[g] = fmt.Errorf("stat: %w", err)
						return
					}
					continue
				}
				f, err := p.Open(name, vfs.O_RDONLY, 0)
				if err != nil {
					errs[g] = fmt.Errorf("open: %w", err)
					return
				}
				buf := make([]byte, 512)
				n, err := f.Pread(buf, 0)
				if err != nil {
					f.Close()
					errs[g] = fmt.Errorf("pread: %w", err)
					return
				}
				if !bytes.Equal(buf[:n], contents[(g+i)%files]) {
					f.Close()
					errs[g] = fmt.Errorf("goroutine %d iter %d: misrouted read", g, i)
					return
				}
				if err := f.Close(); err != nil {
					errs[g] = fmt.Errorf("close: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Conns(); got < 2 || got > 4 {
		t.Errorf("pool size after storm = %d, want 2..4", got)
	}
	// All placement accounting must have drained back to zero.
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, m := range p.members {
		if m.inflight != 0 || m.openFDs != 0 {
			t.Errorf("member %d: inflight=%d openFDs=%d after storm", i, m.inflight, m.openFDs)
		}
	}
}

// Graceful server drain completes while a grown pool sits idle: the
// drain machinery nudges idle connections closed rather than waiting
// them out, and no connection is force-closed.
func TestPoolDrainClosesIdleMembers(t *testing.T) {
	ts := startServer(t, nil)
	single := ts.client(t, "owner.sim")
	p := ts.pool(t, "owner.sim", 3, 0)

	if err := vfs.WriteFile(single, "/d", []byte("drain"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Grow the pool by holding descriptors open, then release them so
	// every member is idle.
	var fds []vfs.File
	for i := 0; i < 3; i++ {
		f, err := p.Open("/d", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, f)
	}
	if got := p.Conns(); got != 3 {
		t.Fatalf("pool grew to %d conns, want 3", got)
	}
	for _, f := range fds {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	single.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with idle pool = %v", err)
	}
	if forced := ts.srv.Stats.DrainForced.Load(); forced != 0 {
		t.Errorf("drain force-closed %d connections, want 0", forced)
	}
	// The pool notices on next use.
	if _, err := p.Stat("/d"); vfs.AsErrno(err) != vfs.ENOTCONN {
		t.Errorf("stat after drain = %v, want ENOTCONN", err)
	}
}

// Surplus members idle past IdleTimeout are reaped back to one
// connection; the pool regrows on demand afterwards.
func TestPoolIdleReap(t *testing.T) {
	ts := startServer(t, nil)
	single := ts.client(t, "owner.sim")
	p := ts.pool(t, "owner.sim", 4, 50*time.Millisecond)

	if err := vfs.WriteFile(single, "/r", []byte("reap"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fds []vfs.File
	for i := 0; i < 4; i++ {
		f, err := p.Open("/r", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, f)
	}
	if got := p.Conns(); got != 4 {
		t.Fatalf("pool grew to %d conns, want 4", got)
	}
	for _, f := range fds {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	time.Sleep(80 * time.Millisecond)
	// Reaping is opportunistic: the next released RPC sweeps the idle
	// surplus.
	if _, err := p.Stat("/r"); err != nil {
		t.Fatal(err)
	}
	if got := p.Conns(); got != 1 {
		t.Errorf("after idle reap: %d conns, want 1", got)
	}
	// The pool still works and can regrow.
	f, err := p.Open("/r", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := preadAll(t, f, 16); string(got) != "reap" {
		t.Errorf("read after reap = %q", got)
	}
	f.Close()
}

// A request line whose verb is not in proto.Verbs is answered EINVAL
// with the stream in sync and counted in chirp_server.rpc_unknown; the
// client never sends one — AppendTo refuses a verb outside the table.
func TestObserveRPCUnknownVerb(t *testing.T) {
	sreg, creg := obs.NewRegistry(), obs.NewRegistry()
	ts := startServerCfg(t, ServerConfig{Metrics: sreg})
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Metrics:     creg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reqs := ts.srv.Stats.Requests.Load()
	c.mu.Lock()
	c.bw.WriteString("frobnicate /x 1\n")
	c.bw.Flush()
	code, err := proto.ReadCode(c.br)
	c.mu.Unlock()
	if err != nil || vfs.FromCode(int(code)) != vfs.EINVAL {
		t.Fatalf("unknown verb answered %d, %v; want EINVAL", code, err)
	}
	if got := sreg.Snapshot().Counters["chirp_server.rpc_unknown"]; got != 1 {
		t.Errorf("rpc_unknown = %d after one unknown verb, want 1", got)
	}
	if got := ts.srv.Stats.Requests.Load() - reqs; got != 1 {
		t.Errorf("unknown verb counted as %d requests, want 1", got)
	}

	// The client refuses the same verb before the wire, metrics on.
	if _, err := c.rpc(&proto.Request{Verb: "frobnicate"}, nil, nil); vfs.AsErrno(err) != vfs.EINVAL {
		t.Errorf("client sent an undeclared verb: %v", err)
	}
	// Known verbs are observed on both sides, on the same connection.
	if _, err := c.Stat("/"); err != nil {
		t.Fatalf("connection unusable after unknown verb: %v", err)
	}
	if creg.Snapshot().Histograms["chirp_client.rpc.stat"].Count != 1 {
		t.Error("known verb not observed by the client")
	}
	ssnap := sreg.Snapshot()
	if ssnap.Histograms["chirp_server.rpc.stat"].Count != 1 {
		t.Error("known verb not observed by the server")
	}
	if got := ssnap.Counters["chirp_server.rpc_unknown"]; got != 1 {
		t.Errorf("rpc_unknown = %d after a known verb, want 1", got)
	}
}

// Whole-file transfers over real TCP exercise the server's zero-copy
// bulk path (io.Copy onto the raw *net.TCPConn); the data must survive
// the round trip bit-exact and the fast path must actually engage.
func TestPoolBulkOverTCP(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "localhost",
		Owner:     "hostname:localhost",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Large enough to span many protocol buffers; odd size to catch
	// off-by-one framing.
	payload := bytes.Repeat([]byte("bulk-data-path!"), 70000)[:1<<20+3]
	if err := p.PutFile("/bulk", 0o644, int64(len(payload)), bytes.NewReader(payload)); err != nil {
		t.Fatalf("putfile: %v", err)
	}
	var got bytes.Buffer
	n, err := p.GetFile("/bulk", &got)
	if err != nil {
		t.Fatalf("getfile: %v", err)
	}
	if n != int64(len(payload)) || !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("bulk round trip corrupted: n=%d want %d", n, len(payload))
	}
	if fast := reg.Snapshot().Counters["chirp_server.bulk_fastpath"]; fast < 2 {
		t.Errorf("bulk fast path engaged %d times, want >= 2 (putfile + getfile)", fast)
	}
}
