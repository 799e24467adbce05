package chirp

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// TestLeaseGrantAndVersion exercises the core consistency signal: a
// lease's version is stable while the file is untouched and advances
// on every conflicting mutation, so a renewal with an unchanged
// version proves everything cached for the path is still current.
func TestLeaseGrantAndVersion(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c, "/f", []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}

	l1, err := c.Lease("/f")
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if l1.TTL <= 0 {
		t.Fatalf("lease TTL = %v, want > 0", l1.TTL)
	}
	l2, err := c.Lease("/f")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Version != l1.Version {
		t.Fatalf("version moved without a write: %d -> %d", l1.Version, l2.Version)
	}
	if l2.ID == l1.ID {
		t.Fatalf("two grants shared lease ID %d", l1.ID)
	}

	// Each flavor of conflicting write must advance the version.
	if err := vfs.WriteFile(c, "/f", []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	l3, err := c.Lease("/f")
	if err != nil {
		t.Fatal(err)
	}
	if l3.Version <= l2.Version {
		t.Fatalf("version did not advance over a write: %d -> %d", l2.Version, l3.Version)
	}
	if err := c.Truncate("/f", 1); err != nil {
		t.Fatal(err)
	}
	l4, err := c.Lease("/f")
	if err != nil {
		t.Fatal(err)
	}
	if l4.Version <= l3.Version {
		t.Fatalf("version did not advance over truncate: %d -> %d", l3.Version, l4.Version)
	}
	if err := c.Chmod("/f", 0o600); err != nil {
		t.Fatal(err)
	}
	l5, err := c.Lease("/f")
	if err != nil {
		t.Fatal(err)
	}
	if l5.Version <= l4.Version {
		t.Fatalf("version did not advance over chmod: %d -> %d", l4.Version, l5.Version)
	}
}

// TestLeaseDirectoryVersion covers the dirent-cache contract: creating
// or removing an entry advances the parent directory's version.
func TestLeaseDirectoryVersion(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	l1, err := c.Lease("/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/d/child", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := c.Lease("/d")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Version <= l1.Version {
		t.Fatalf("parent version did not advance over create: %d -> %d", l1.Version, l2.Version)
	}
	if err := c.Unlink("/d/child"); err != nil {
		t.Fatal(err)
	}
	l3, err := c.Lease("/d")
	if err != nil {
		t.Fatal(err)
	}
	if l3.Version <= l2.Version {
		t.Fatalf("parent version did not advance over unlink: %d -> %d", l2.Version, l3.Version)
	}
}

// TestLeaseBreakCounting checks the server-side accounting: breaks
// count only live leases invalidated by a conflicting write, and a
// client release is not a break.
func TestLeaseBreakCounting(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	breaks0 := ts.srv.Stats.LeaseBreaks.Load()

	l, err := c.Lease("/f")
	if err != nil {
		t.Fatal(err)
	}
	if g := ts.srv.Stats.LeaseGrants.Load(); g == 0 {
		t.Fatal("grant not counted")
	}
	if err := c.LeaseBreak(l.ID); err != nil {
		t.Fatalf("leasebreak: %v", err)
	}
	if got := ts.srv.Stats.LeaseBreaks.Load(); got != breaks0 {
		t.Fatalf("client release counted as a break: %d -> %d", breaks0, got)
	}
	// Releasing an ID the server no longer tracks answers EBADF.
	if err := c.LeaseBreak(l.ID); vfs.AsErrno(err) != vfs.EBADF {
		t.Fatalf("double release = %v, want EBADF", err)
	}

	if _, err := c.Lease("/f"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/f", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ts.srv.Stats.LeaseBreaks.Load(); got != breaks0+1 {
		t.Fatalf("conflicting write broke %d leases, want 1", got-breaks0)
	}
}

// TestLeaseSessionCleanup closes a lease-holding connection and checks
// the server forgot its grants: a second client's grant on the same
// path is then the only live lease, so one write breaks exactly one.
func TestLeaseSessionCleanup(t *testing.T) {
	ts := startServer(t, nil)
	c1 := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c1, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Lease("/f"); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := ts.client(t, "owner.sim")
	// The close is asynchronous server-side; wait until the dead
	// session's cleanup has emptied the lease table.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ts.srv.leases.mu.Lock()
		n := len(ts.srv.leases.byID)
		ts.srv.leases.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	breaks0 := ts.srv.Stats.LeaseBreaks.Load()
	if _, err := c2.Lease("/f"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c2, "/f", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ts.srv.Stats.LeaseBreaks.Load() - breaks0; got != 1 {
		t.Fatalf("write broke %d leases, want 1 (dead session's grant should be gone)", got)
	}
}

// TestLeaseACL verifies the access bar: a lease requires list rights on
// the parent, the same as stat, because it only reveals that something
// about the path changed.
func TestLeaseACL(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "stranger.sim")
	if _, err := c.Lease("/f"); vfs.AsErrno(err) != vfs.EACCES {
		t.Fatalf("unauthorized lease = %v, want EACCES", err)
	}
}

// TestLeaseExpiry confirms a lease past its TTL is not counted broken
// by a later write: the grant has already lapsed.
func TestLeaseExpiry(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "fs.sim",
		Owner:     "hostname:owner.sim",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		LeaseTTL:  10 * time.Millisecond,
	})
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
	ts := &testServer{srv: srv, net: nw}

	c := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	lease, err := c.Lease("/f")
	if err != nil {
		t.Fatal(err)
	}
	if lease.TTL != 10*time.Millisecond {
		t.Fatalf("TTL = %v, want configured 10ms", lease.TTL)
	}
	time.Sleep(30 * time.Millisecond)
	if err := vfs.WriteFile(c, "/f", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ts.srv.Stats.LeaseBreaks.Load(); got != 0 {
		t.Fatalf("expired lease counted broken: breaks = %d", got)
	}
}

// TestLeaseOwnedPruning covers the session-ledger hygiene behind
// pooled release routing: a grant recorded in one session's map may be
// released over another connection, which cannot reach the granting
// session's map — pruneOwned at the next grant must drop such IDs (and
// expired ones) so a long-lived connection does not accumulate them.
func TestLeaseOwnedPruning(t *testing.T) {
	var tbl leaseTable
	tbl.init(50 * time.Millisecond)
	sub := auth.Subject("hostname:owner.sim")
	id1, _, _ := tbl.grant("/a", sub)
	id2, _, _ := tbl.grant("/b", sub)
	owned := map[int64]struct{}{id1: {}, id2: {}}
	// id1 is released as if over another pool member: the owning
	// session's map still carries it.
	if err := tbl.release(id1, sub); err != nil {
		t.Fatal(err)
	}
	tbl.pruneOwned(owned)
	if _, ok := owned[id1]; ok {
		t.Fatal("released ID survived pruning")
	}
	if _, ok := owned[id2]; !ok {
		t.Fatal("live ID was pruned")
	}
	// Past the TTL the remaining grant is dead weight in both the
	// session map and the table; pruning clears both.
	time.Sleep(60 * time.Millisecond)
	tbl.pruneOwned(owned)
	if len(owned) != 0 {
		t.Fatalf("expired ID survived pruning: %v", owned)
	}
	tbl.mu.Lock()
	n := len(tbl.byID)
	tbl.mu.Unlock()
	if n != 0 {
		t.Fatalf("expired grant still in server table (%d entries)", n)
	}
}

// TestLeasePooled checks the pool passthrough: a lease granted over one
// member releases cleanly over whichever member the break lands on.
func TestLeasePooled(t *testing.T) {
	ts := startServer(t, nil)
	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := vfs.WriteFile(p, "/p", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := p.Lease("/p")
	if err != nil {
		t.Fatalf("pooled lease: %v", err)
	}
	if err := p.LeaseBreak(l.ID); err != nil {
		t.Fatalf("pooled leasebreak: %v", err)
	}
	if caps := vfs.Capabilities(p); caps.Leaser == nil {
		t.Fatal("pool does not advertise Leaser")
	}
}

// TestLeaseVersionsOnlyForGrantedPaths: the version table records only
// paths somebody was told a version of; a server under unique temporary
// names used to keep one entry per name forever.
func TestLeaseVersionsOnlyForGrantedPaths(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	tracked := func() int {
		ts.srv.leases.mu.Lock()
		defer ts.srv.leases.mu.Unlock()
		return len(ts.srv.leases.version)
	}
	for i := 0; i < 200; i++ {
		tmp := fmt.Sprintf("/c%d.tmp", i)
		if err := vfs.WriteFile(c, tmp, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := c.Rename(tmp, "/out"); err != nil {
			t.Fatal(err)
		}
	}
	if n := tracked(); n != 0 {
		t.Errorf("%d versions recorded with no lease ever granted, want 0", n)
	}
	// From its first grant on, a path's mutations move its version.
	l1, err := c.Lease("/out")
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/out", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := c.Lease("/out")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Version <= l1.Version || tracked() != 1 {
		t.Errorf("version %d -> %d over a write, %d paths tracked; want an advance and 1", l1.Version, l2.Version, tracked())
	}
}
