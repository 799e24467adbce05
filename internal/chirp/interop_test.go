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
	"tss/internal/obs"
	"tss/internal/vfs"
)

// featureGroups are the protocol extensions the interop matrix ranges
// over, each with the client workload that leans on it: run against a
// server that predates the group it must still succeed, by way of the
// group's fallback.
var featureGroups = []struct {
	name    string
	feature proto.Feature
	// memoized says the client remembers the group's refusal. Parts is
	// negotiated per transfer by the copy engine instead: an EINVAL
	// earned by a bad argument must not disable multipart for good.
	memoized bool
	workload func(t *testing.T, ts *testServer, c *Client)
}{
	{"sums", proto.Sums, true, func(t *testing.T, ts *testServer, c *Client) {
		// Verified transfers fall back to the plain verbs, Checksum to
		// hashing a plain getfile stream.
		data := bytes.Repeat([]byte("old server interop "), 2048)
		if err := vfs.PutReader(c, "/sums", 0o644, int64(len(data)), bytes.NewReader(data)); err != nil {
			t.Fatalf("verified put: %v", err)
		}
		var got bytes.Buffer
		if _, err := c.GetFile("/sums", &got); err != nil {
			t.Fatalf("verified get: %v", err)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatal("payload mismatch")
		}
		sum, err := c.Checksum("/sums", "sha256")
		if err != nil {
			t.Fatalf("checksum: %v", err)
		}
		if want := localDigest(t, data, "sha256"); sum != want {
			t.Errorf("checksum = %s, want %s", sum, want)
		}
	}},
	{"parts", proto.Parts, false, func(t *testing.T, ts *testServer, c *Client) {
		// Both directions of the copy engine degrade to positional
		// I/O, still verified.
		data := partPayload(150_000)
		opts := vfs.CopyOptions{Concurrency: 4, ChunkSize: 32 << 10, Verify: true}
		src := localEndpoint(t, "parts.bin", data)
		if _, err := vfs.Copy(context.Background(), vfs.Loc{FS: c, Path: "/parts"}, src, opts); err != nil {
			t.Fatalf("multipart put: %v", err)
		}
		dst := localEndpoint(t, "back.bin", nil)
		if _, err := vfs.Copy(context.Background(), dst, vfs.Loc{FS: c, Path: "/parts"}, opts); err != nil {
			t.Fatalf("multipart get: %v", err)
		}
		got, err := vfs.ReadFile(dst.FS, dst.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("payload mismatch")
		}
	}},
	{"leases", proto.Leases, true, func(t *testing.T, ts *testServer, c *Client) {
		// There is no fallback verb: the caching tier above sees EINVAL
		// and keeps to TTL expiry, so the workload only has to leave
		// the connection usable.
		if err := vfs.WriteFile(c, "/leased", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := c.Lease("/leased"); err == nil {
			if err := c.LeaseBreak(l.ID); err != nil {
				t.Fatalf("leasebreak: %v", err)
			}
		} else if vfs.AsErrno(err) != vfs.EINVAL {
			t.Fatalf("lease = %v, want a grant or EINVAL", err)
		}
	}},
	{"deadline", proto.Deadline, true, func(t *testing.T, ts *testServer, c *Client) {
		// The client's 5s timeout puts the prefix on every RPC.
		if err := vfs.WriteFile(c, "/budgeted", []byte("interop"), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		data, err := vfs.ReadFile(c, "/budgeted")
		if err != nil || string(data) != "interop" {
			t.Fatalf("read: %q, %v", data, err)
		}
		if n := ts.srv.Stats.DeadlineRejects.Load(); n != 0 {
			t.Errorf("generous budgets produced %d deadline rejects", n)
		}
	}},
}

// extensionCalls sums the server-side RPC counts of every verb in
// feature group f: how often the group appeared on the wire.
func extensionCalls(reg *obs.Registry, f proto.Feature) int64 {
	snap := reg.Snapshot()
	var n int64
	for _, v := range proto.Verbs {
		if v.Feature == f {
			n += snap.Histograms["chirp_server.rpc."+v.Name].Count
		}
	}
	return n
}

// TestFeatureInterop is the old↔new matrix for every wire extension.
// New client × old server, per group: every verb of the group answers
// EINVAL with the stream in sync, the group's workload succeeds through
// its fallback, the client downgrades, and a base-verb RPC works on the
// same connection afterwards. Old client × new server: a client that
// speaks only the base verbs is served by the full server without one
// extension verb crossing the wire.
func TestFeatureInterop(t *testing.T) {
	for _, g := range featureGroups {
		t.Run("old-server/"+g.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ts := startServerCfg(t, ServerConfig{Metrics: reg})
			ts.srv.disabled.Store(g.feature.Bit())

			raw := ts.client(t, "owner.sim")
			for _, v := range proto.Verbs {
				if v.Feature != g.feature {
					continue
				}
				// No body is sent: an old server consumes none.
				req := &proto.Request{Verb: v.Name, Path: "/f", Algo: "crc32c", Length: 4}
				if _, err := raw.rpc(req, nil, nil); vfs.AsErrno(err) != vfs.EINVAL {
					t.Errorf("%s against a server without %s = %v, want EINVAL", v.Name, g.name, err)
				}
				if _, err := raw.Whoami(); err != nil {
					t.Fatalf("stream out of sync after refused %s: %v", v.Name, err)
				}
			}
			if n := extensionCalls(reg, g.feature); n != 0 {
				t.Errorf("a server without %s served %d of its verbs", g.name, n)
			}

			c := ts.verifyClient(t, "owner.sim")
			g.workload(t, ts, c)
			if got := c.supports(g.feature); got == g.memoized {
				t.Errorf("after the workload supports(%s) = %v, want %v", g.name, got, !g.memoized)
			}
			if g.memoized {
				// Downgraded for good: a second pass never probes again.
				unknown := reg.Snapshot().Counters["chirp_server.rpc_unknown"]
				g.workload(t, ts, c)
				if got := reg.Snapshot().Counters["chirp_server.rpc_unknown"]; got != unknown {
					t.Errorf("downgraded client probed %s %d more times", g.name, got-unknown)
				}
			}
			if err := vfs.WriteFile(c, "/after", []byte("ok"), 0o644); err != nil {
				t.Fatalf("connection unusable after the %s downgrade: %v", g.name, err)
			}
		})
	}

	t.Run("old-client", func(t *testing.T) {
		reg := obs.NewRegistry()
		ts := startServerCfg(t, ServerConfig{Metrics: reg})
		c := ts.verifyClient(t, "owner.sim")
		for _, g := range featureGroups {
			c.refuse(g.feature)
		}
		for _, g := range featureGroups {
			if g.feature != proto.Parts {
				// An old client has no copy engine issuing part verbs;
				// its bulk transfers are the sums workload's plain ones.
				g.workload(t, ts, c)
			}
			if n := extensionCalls(reg, g.feature); n != 0 {
				t.Errorf("base-verbs-only client put %d %s verbs on the wire", n, g.name)
			}
		}
		if n := reg.Snapshot().Counters["chirp_server.rpc_unknown"]; n != 0 {
			t.Errorf("full server saw %d unknown verbs from an old client", n)
		}
	})
}

// What a server refused describes that server: after Reconnect the
// client must probe its peer afresh.
func TestReconnectForgetsRefusals(t *testing.T) {
	reg := obs.NewRegistry()
	ts := startServerCfg(t, ServerConfig{Metrics: reg})
	ts.srv.disabled.Store(proto.Leases.Bit() | proto.Deadline.Bit())
	c := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lease("/f"); vfs.AsErrno(err) != vfs.EINVAL {
		t.Fatalf("lease against a server without leases = %v, want EINVAL", err)
	}
	if c.supports(proto.Leases) || c.supports(proto.Deadline) {
		t.Fatal("client did not downgrade")
	}

	// The server learns the verbs, but the memo holds on this
	// connection: nothing reaches the wire.
	ts.srv.disabled.Store(0)
	if _, err := c.Lease("/f"); vfs.AsErrno(err) != vfs.EINVAL {
		t.Fatalf("memoized lease probe = %v, want EINVAL", err)
	}
	if n := extensionCalls(reg, proto.Leases) + extensionCalls(reg, proto.Deadline); n != 0 {
		t.Fatalf("downgraded client sent %d extension verbs", n)
	}

	if err := c.Reconnect(); err != nil {
		t.Fatal(err)
	}
	l, err := c.Lease("/f")
	if err != nil {
		t.Fatalf("lease after reconnecting to a current server: %v", err)
	}
	if err := c.LeaseBreak(l.ID); err != nil {
		t.Fatal(err)
	}
	if extensionCalls(reg, proto.Leases) != 2 || extensionCalls(reg, proto.Deadline) == 0 {
		t.Errorf("after Reconnect the wire carried %d lease and %d deadline verbs, want 2 and some",
			extensionCalls(reg, proto.Leases), extensionCalls(reg, proto.Deadline))
	}
	if !c.supports(proto.Leases) || !c.supports(proto.Deadline) {
		t.Error("client downgraded against a current server")
	}

	// The memo belongs to the transport, not to one connection: every
	// connection speaks to the same server, so a lazily dialed one
	// inherits what the first learned and probes nothing again.
	t.Run("pool", func(t *testing.T) {
		reg := obs.NewRegistry()
		ts := startServerCfg(t, ServerConfig{Metrics: reg})
		ts.srv.disabled.Store(proto.Leases.Bit() | proto.Deadline.Bit())
		p := ts.pool(t, "owner.sim", 2)
		// Descriptors steer placement: fa pins the first connection, so
		// the first Lease dials the second; fb then pins the second, so
		// a second Lease that reached the wire would land on the first.
		fa, err := p.Open("/a", vfs.O_CREAT|vfs.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Lease("/a"); vfs.AsErrno(err) != vfs.EINVAL {
			t.Fatalf("lease against a server without leases = %v, want EINVAL", err)
		}
		fb, err := p.Open("/b", vfs.O_CREAT|vfs.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := fa.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Lease("/a"); vfs.AsErrno(err) != vfs.EINVAL {
			t.Fatalf("memoized lease = %v, want EINVAL", err)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}
		if got := p.Conns(); got != 2 {
			t.Fatalf("%d connections, want 2", got)
		}
		// A disabled verb is an unknown one to the server: the two are
		// the first open's deadline prefix and the first lease.
		if n := reg.Snapshot().Counters["chirp_server.rpc_unknown"]; n != 2 {
			t.Errorf("server refused %d extension verbs, want one deadline prefix and one lease", n)
		}
	})
}

// TestVerbTableConsistency pins the join: every proto.Verbs entry has
// exactly one handler with an admission class, and a histogram from
// boot on both sides. (A handler without an entry panics at startup.)
func TestVerbTableConsistency(t *testing.T) {
	if len(handlers) != len(proto.Verbs) {
		t.Errorf("%d handlers for %d verbs", len(handlers), len(proto.Verbs))
	}
	sreg, creg := obs.NewRegistry(), obs.NewRegistry()
	ts := startServerCfg(t, ServerConfig{Metrics: sreg})
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		Metrics:     creg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ssnap, csnap := sreg.Snapshot(), creg.Snapshot()
	for i := range proto.Verbs {
		v := &proto.Verbs[i]
		sv := handlerByVerb[v.Name]
		switch {
		case sv == nil:
			t.Errorf("verb %s has no handler", v.Name)
			continue
		case sv.handle == nil:
			t.Errorf("verb %s joins a nil handler", v.Name)
		case sv.wire != v:
			t.Errorf("verb %s joined to the wrong table entry", v.Name)
		}
		if v.Body != proto.NoBody && !sv.bulk {
			t.Errorf("verb %s carries a body but is admitted as control plane", v.Name)
		}
		if _, ok := ssnap.Histograms["chirp_server.rpc."+v.Name]; !ok {
			t.Errorf("no server histogram for %s at boot", v.Name)
		}
		if _, ok := csnap.Histograms["chirp_client.rpc."+v.Name]; !ok {
			t.Errorf("no client histogram for %s at boot", v.Name)
		}
	}
}
