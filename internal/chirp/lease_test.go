package chirp

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
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
// pooled release routing: a grant recorded in one session's ledger may
// be released over another connection, which cannot reach the granting
// session — the table must take such IDs (and expired ones) out of the
// ledger itself, so a long-lived connection does not accumulate them.
func TestLeaseOwnedPruning(t *testing.T) {
	var tbl leaseTable
	tbl.init(50 * time.Millisecond)
	sub := auth.Subject("hostname:owner.sim")
	var owned leaseLedger
	id1, _, _ := tbl.grant("/a", sub, &owned)
	id2, _, _ := tbl.grant("/b", sub, &owned)
	// id1 is released as if over another pool member: the call names
	// the lease and the subject, not the owning session.
	if err := tbl.release(id1, sub); err != nil {
		t.Fatal(err)
	}
	if _, ok := owned.ids[id1]; ok {
		t.Fatal("released ID survived in the owning session's ledger")
	}
	if _, ok := owned.ids[id2]; !ok {
		t.Fatal("live ID left the ledger")
	}
	// Past the TTL the remaining grant is dead weight in both the
	// ledger and the table; the next grant, on any session, clears both.
	time.Sleep(60 * time.Millisecond)
	var other leaseLedger
	id3, _, _ := tbl.grant("/c", sub, &other)
	if len(owned.ids) != 0 {
		t.Fatalf("expired ID survived in the ledger: %v", owned.ids)
	}
	tbl.mu.Lock()
	_, live := tbl.byID[id3]
	n := len(tbl.byID)
	tbl.mu.Unlock()
	if n != 1 || !live {
		t.Fatalf("server table holds %d entries (new grant present: %v), want only the new grant", n, live)
	}
}

// TestLeaseGrantCostIsFlat: with 10 000 live grants on one session the
// next grant looks at a constant number of entries — the oldest, to see
// that nothing has lapsed — where it used to walk the whole ledger under
// the table lock. Counted, not timed.
func TestLeaseGrantCostIsFlat(t *testing.T) {
	var tbl leaseTable
	tbl.init(time.Hour)
	sub := auth.Subject("hostname:owner.sim")
	var owned leaseLedger
	const live = 10000
	for i := 0; i < live; i++ {
		tbl.grant(fmt.Sprintf("/p%d", i%500), sub, &owned)
	}
	before := tbl.visited
	const more = 100
	for i := 0; i < more; i++ {
		tbl.grant("/q", sub, &owned)
	}
	if per := float64(tbl.visited-before) / more; per > 2 {
		t.Errorf("a grant visited %.1f entries with %d live, want a constant", per, live)
	}
	if len(owned.ids) != live+more || len(tbl.byID) != live+more {
		t.Errorf("ledger %d, table %d, want %d live grants in both", len(owned.ids), len(tbl.byID), live+more)
	}
	// Disconnect: everything the session held leaves the table.
	tbl.releaseOwned(&owned)
	if len(owned.ids) != 0 || len(tbl.byID) != 0 || len(tbl.byPath) != 0 || tbl.oldest != nil || tbl.newest != nil {
		t.Errorf("after disconnect: ledger %d, byID %d, byPath %d, list ends %v %v; want all empty",
			len(owned.ids), len(tbl.byID), len(tbl.byPath), tbl.oldest, tbl.newest)
	}
}

// TestLeaseExpiredGrantsLeaveInOrder: grants that lapsed since the last
// one are dropped from the old end, and only those.
func TestLeaseExpiredGrantsLeaveInOrder(t *testing.T) {
	var tbl leaseTable
	tbl.init(40 * time.Millisecond)
	sub := auth.Subject("hostname:owner.sim")
	var a, b leaseLedger
	for i := 0; i < 5; i++ {
		tbl.grant("/old", sub, &a)
	}
	time.Sleep(60 * time.Millisecond)
	fresh, _, _ := tbl.grant("/new", sub, &b)
	before := tbl.visited
	last, _, _ := tbl.grant("/new", sub, &b)
	if len(a.ids) != 0 || len(b.ids) != 2 || len(tbl.byID) != 2 {
		t.Fatalf("ledgers %d/%d, table %d; want the five lapsed grants gone and the two fresh ones kept", len(a.ids), len(b.ids), len(tbl.byID))
	}
	if tbl.visited-before != 1 {
		t.Errorf("grant with nothing lapsed visited %d entries, want 1", tbl.visited-before)
	}
	if tbl.oldest.id != fresh || tbl.newest.id != last {
		t.Errorf("list runs %d..%d, want %d..%d", tbl.oldest.id, tbl.newest.id, fresh, last)
	}
	if _, ok := tbl.byPath["/old"]; ok {
		t.Error("path index kept an entry for a path with no live lease")
	}
}

// TestLeasePooled checks the pool passthrough: a lease granted over one
// member releases cleanly over whichever member the break lands on.
func TestLeasePooled(t *testing.T) {
	ts := startServer(t, nil)
	p, err := Dial(ClientConfig{
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

// TestLeaseVersionMovesWhenPathAppears is the rule a cached "not there"
// leans on (DESIGN.md §14): whoever was told a version of an absent
// path is told a different one once the path exists, whichever verb
// made it. The table covers proto.Verbs entry by entry, so a new verb
// has to say which kind it is.
func TestLeaseVersionMovesWhenPathAppears(t *testing.T) {
	// appear makes path exist using the one verb; nil marks a verb that
	// cannot create a directory entry (descriptor verbs, readers, verbs
	// that need the path to exist, and the ACL file setacl writes, which
	// no path reaches).
	appear := map[string]func(c *Client, path string) error{
		"open": func(c *Client, path string) error {
			f, err := c.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644)
			if err != nil {
				return err
			}
			return f.Close()
		},
		"rename": func(c *Client, path string) error {
			if err := vfs.WriteFile(c, path+".src", []byte("x"), 0o644); err != nil {
				return err
			}
			return c.Rename(path+".src", path)
		},
		"mkdir": func(c *Client, path string) error { return c.Mkdir(path, 0o755) },
		"putfile": func(c *Client, path string) error {
			return c.putFilePlain(path, 0o644, 1, strings.NewReader("x"))
		},
		"putfilesum": func(c *Client, path string) error {
			return c.putFileSum(path, 0o644, 1, strings.NewReader("x"))
		},
		"putbegin": func(c *Client, path string) error { return c.PutBegin(path, 0o644, 1) },

		"pread": nil, "pwrite": nil, "fstat": nil, "fsync": nil, "ftruncate": nil, "close": nil,
		"stat": nil, "getdir": nil, "getfile": nil, "getacl": nil, "statfs": nil, "whoami": nil,
		"checksum": nil, "getfilesum": nil, "getpart": nil,
		"unlink": nil, "rmdir": nil, "truncate": nil, "chmod": nil, "setacl": nil,
		"putpart": nil, "putcomplete": nil,
		"lease": nil, "leasebreak": nil, "deadline": nil,
	}
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	holder := ts.client(t, "owner.sim")

	// told leases the absent path as a cache would before recording "not
	// there"; moved checks what the holder learns afterwards.
	told := func(path string) vfs.Lease {
		t.Helper()
		l, err := holder.Lease(path)
		if err != nil {
			t.Fatalf("lease %s: %v", path, err)
		}
		if _, err := holder.Stat(path); vfs.AsErrno(err) != vfs.ENOENT {
			t.Fatalf("stat %s before = %v, want ENOENT", path, err)
		}
		return l
	}
	moved := func(what, path string, before vfs.Lease) {
		t.Helper()
		if _, err := holder.Stat(path); err != nil {
			t.Fatalf("%s: %s did not appear: %v", what, path, err)
		}
		after, err := holder.Lease(path)
		if err != nil {
			t.Fatal(err)
		}
		if after.Version == before.Version {
			t.Errorf("%s made %s appear and its version stayed %d: a cached ENOENT would be revalidated forever", what, path, before.Version)
		}
		if err := holder.LeaseBreak(before.ID); vfs.AsErrno(err) != vfs.EBADF {
			t.Errorf("%s: the lease on absent %s survived (release = %v, want EBADF)", what, path, err)
		}
	}

	for _, v := range proto.Verbs {
		create, classified := appear[v.Name]
		if !classified {
			t.Errorf("verb %q is not classified: can it make a path appear?", v.Name)
			continue
		}
		if create == nil {
			continue
		}
		path := "/appear-" + v.Name
		before := told(path)
		if err := create(c, path); err != nil {
			t.Fatalf("%s %s: %v", v.Name, path, err)
		}
		moved(v.Name, path, before)
	}
	if len(appear) != len(proto.Verbs) {
		t.Errorf("table classifies %d verbs, the wire has %d", len(appear), len(proto.Verbs))
	}

	// A renamed directory makes every path beneath its new name appear
	// and every path beneath its old name vanish.
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	under := told("/e/f")
	gone, err := holder.Lease("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	moved("rename of a directory", "/e/f", under)
	again, err := holder.Lease("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if again.Version == gone.Version {
		t.Errorf("/d was renamed away and the version of /d/f stayed %d: its cached bytes would be served forever", gone.Version)
	}
}
