package chirp

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// settleACLs waits until every ACL file written so far is old enough to
// be cached (aclStamp.settledAt): before that, checks take the miss path.
func settleACLs() { time.Sleep(aclGranule + 5*time.Millisecond) }

// referenceACL is the uncached read the cache replaced, kept as the
// oracle: walk from dir toward the root, opening and parsing each ACL
// file on every call.
func referenceACL(fs *vfs.LocalFS, dir string) (*acl.List, error) {
	for {
		data, err := vfs.ReadFile(fs, pathutil.Join(dir, ACLFileName))
		if err == nil {
			return acl.Parse(data)
		}
		if vfs.AsErrno(err) != vfs.ENOENT {
			return nil, err
		}
		if pathutil.IsRoot(dir) {
			return nil, vfs.EIO
		}
		dir = pathutil.Dir(dir)
	}
}

func (ts *testServer) cachedACLs() int {
	ts.srv.aclsMu.RLock()
	defer ts.srv.aclsMu.RUnlock()
	return len(ts.srv.acls)
}

// TestSetaclBreaksLease: a lease on a directory taken before setacl
// comes back with a different version after it, so a caching client
// learns that rights there changed.
func TestSetaclBreaksLease(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	before, err := c.Lease("/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetACL("/d", "hostname:guest.sim", "rl"); err != nil {
		t.Fatal(err)
	}
	after, err := c.Lease("/d")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version == before.Version {
		t.Errorf("lease version %d did not move over setacl", before.Version)
	}
	if err := c.LeaseBreak(before.ID); vfs.AsErrno(err) != vfs.EBADF {
		t.Errorf("release of the pre-setacl lease = %v, want EBADF (already broken)", err)
	}
}

// TestACLNoTornRead: setacl truncates the ACL file and then writes it.
// A check that read it in between would parse an empty or partial list
// and refuse a subject whose rights never changed.
func TestACLNoTornRead(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:reader.sim", acl.R|acl.L, 0)
	ts := startServer(t, rootACL)
	owner := ts.client(t, "owner.sim")
	reader := ts.client(t, "reader.sim")
	if err := vfs.WriteFile(owner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			if err := owner.SetACL("/", "hostname:other.sim", []string{"rl", "rwl"}[i%2]); err != nil {
				t.Errorf("setacl: %v", err)
				return
			}
			if i%100 == 0 {
				settleACLs() // let the list be cached, so hits race the next write too
			}
		}
	}()
	for stats := 0; ; stats++ {
		select {
		case <-done:
			t.Logf("%d stats beside 400 setacls", stats)
			return
		default:
		}
		if _, err := reader.Stat("/f"); err != nil {
			t.Errorf("stat %d by an always-authorised subject: %v", stats, err)
			<-done
			return
		}
	}
}

// TestACLRevocationLinearizable: once a setacl that removes a right has
// been acknowledged, no check for that subject succeeds, on the session
// that was being served from the cache or on another.
func TestACLRevocationLinearizable(t *testing.T) {
	ts := startServer(t, nil)
	owner := ts.client(t, "owner.sim")
	if err := owner.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(owner, "/d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// epoch is odd from the acknowledgement of a revoking setacl until
	// just before the next grant is sent.
	var epoch, granted, refused atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		victim := ts.client(t, "victim.sim")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := epoch.Load()
				_, err := victim.Stat("/d/f")
				switch {
				case err == nil && e%2 == 1 && epoch.Load() == e:
					t.Errorf("stat succeeded in epoch %d, after the revocation was acknowledged", e)
					return
				case err == nil:
					granted.Add(1)
				case vfs.AsErrno(err) == vfs.EACCES:
					refused.Add(1)
				default:
					t.Errorf("stat: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 12; round++ {
		if err := owner.SetACL("/d", "hostname:victim.sim", "rl"); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			settleACLs() // the grant is served from the cache when it is revoked
		}
		if err := owner.SetACL("/d", "hostname:victim.sim", "n"); err != nil {
			t.Fatal(err)
		}
		epoch.Add(1)
		time.Sleep(5 * time.Millisecond)
		epoch.Add(1)
	}
	close(stop)
	wg.Wait()
	if granted.Load() == 0 || refused.Load() == 0 {
		t.Errorf("%d stats granted, %d refused: the test saw only one side", granted.Load(), refused.Load())
	}
}

// TestACLCacheBounded: the entry count is capped, and names that do not
// exist get no entry, so a client cannot grow the cache by probing.
func TestACLCacheBounded(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	settleACLs()
	for i := 0; i < 10000; i++ {
		if _, err := c.Stat(fmt.Sprintf("/nope%d/sub/f", i)); vfs.AsErrno(err) != vfs.ENOENT {
			t.Fatalf("stat under a missing directory = %v, want ENOENT", err)
		}
	}
	if n := ts.cachedACLs(); n != 1 {
		t.Errorf("%d entries after 10000 probes, want 1 (the root)", n)
	}
	ts.srv.aclMu.Lock()
	for i := 0; i < maxACLEntries+100; i++ {
		ts.srv.putACL(fmt.Sprintf("/d%d", i), &aclEntry{})
	}
	ts.srv.aclMu.Unlock()
	if n := ts.cachedACLs(); n != maxACLEntries {
		t.Errorf("%d entries, want the cap %d", n, maxACLEntries)
	}
}

// TestACLInheritedTreeTakesNoLock: directories with no ACL file — data
// exported as it was found — inherit at the cost of one failed stat per
// level. They wait neither for aclMu (held here, as a setacl elsewhere
// in the tree would for its disk writes) nor for the cache's write lock,
// and they get no entry.
func TestACLInheritedTreeTakesNoLock(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	host, err := ts.srv.FS().HostPath("/found/as/is")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(host, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(host, "f"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	settleACLs()
	if _, err := c.Stat("/found/as/is/f"); err != nil { // caches the root's list
		t.Fatal(err)
	}
	before := ts.srv.Stats.ACLInvalidations.Load()
	ts.srv.aclMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := c.Stat("/found/as/is/f")
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		err = fmt.Errorf("stat under an inherited tree waits for aclMu")
	}
	ts.srv.aclMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n, inv := ts.cachedACLs(), ts.srv.Stats.ACLInvalidations.Load()-before; n != 1 || inv != 0 {
		t.Errorf("%d entries and %d invalidations after inherited checks, want 1 (the root) and 0", n, inv)
	}
}

// TestACLOutOfBandEdit: an owner editing an ACL file on disk is honoured
// by the very next request, whether the old list was cached (the stamp
// moved) or too fresh to be (it is read again). The edits keep the
// file's size and put its mtime back, the hardest case for the stamp.
func TestACLOutOfBandEdit(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:guest.sim", acl.R|acl.L, 0)
	ts := startServer(t, rootACL)
	guest := ts.client(t, "guest.sim")
	host, err := ts.srv.FS().HostPath("/" + ACLFileName)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(host)
	if err != nil {
		t.Fatal(err)
	}
	with := []byte("hostname:guest.sim rl\nhostname:owner.sim rwlda\n")
	without := []byte("hostname:guest.sim wd\nhostname:owner.sim rwlda\n")
	edit := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(host, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(host, st.ModTime(), st.ModTime()); err != nil {
			t.Fatal(err)
		}
	}
	edit(with)
	for _, cached := range []bool{true, false, true} {
		if cached {
			settleACLs()
		}
		hits := ts.srv.Stats.ACLHits.Load()
		if _, err := guest.Stat("/"); err != nil {
			t.Fatalf("stat before the edit (cached %v): %v", cached, err)
		}
		if _, err := guest.Stat("/"); err != nil {
			t.Fatal(err)
		}
		if got := ts.srv.Stats.ACLHits.Load() > hits; got != cached {
			t.Errorf("served from the cache = %v, want %v", got, cached)
		}
		edit(without)
		if _, err := guest.Stat("/"); vfs.AsErrno(err) != vfs.EACCES {
			t.Errorf("stat right after the revoking edit (cached %v) = %v, want EACCES", cached, err)
		}
		edit(with)
		if _, err := guest.Stat("/"); err != nil {
			t.Errorf("stat right after the restoring edit (cached %v): %v", cached, err)
		}
	}
}

// TestACLCacheModel drives seeded random steps — the in-band writers,
// renames of files and of directories with children, and out-of-band
// edits under the export — and after every step compares the server's
// decision with the uncached reference for every subject, directory
// and right. Some steps are followed by a pause that lets the lists be
// cached, so the next step has live entries to invalidate.
func TestACLCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runACLCacheModel(t, seed) })
	}
}

func runACLCacheModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	subjects := []auth.Subject{"hostname:owner.sim", "hostname:u1.sim", "hostname:u2.sim"}
	rootACL := &acl.List{}
	rootACL.Set(string(subjects[1]), acl.R|acl.L, 0)
	rootACL.Set(string(subjects[2]), acl.R|acl.W|acl.L|acl.V, acl.R|acl.W|acl.L)
	ts := startServer(t, rootACL)
	owner := ts.client(t, "owner.sim")
	u2 := ts.client(t, "u2.sim")
	fs := ts.srv.FS()

	var dirs []string
	for _, top := range []string{"/a", "/b", "/c"} {
		dirs = append(dirs, top, top+"/x", top+"/y")
	}
	pick := func() string { return dirs[rng.Intn(len(dirs))] }
	specs := []string{"rl", "rw", "wl", "la", "wd"}
	// Every out-of-band list has the same size, so one replacing another
	// is a same-size rewrite; the owner keeps its rights, so the in-band
	// steps go on working.
	oob := func() []byte {
		return []byte(fmt.Sprintf("%s rwlda\n%s %s\n%s %s\n", subjects[0],
			subjects[1], specs[rng.Intn(len(specs))], subjects[2], specs[rng.Intn(len(specs))]))
	}
	hostPath := func(p string) string {
		hp, err := fs.HostPath(p)
		if err != nil {
			t.Fatal(err)
		}
		return hp
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"mkdir", func() error { return owner.Mkdir(pick(), 0o755) }},
		{"mkdir reserved", func() error { return u2.Mkdir(pick(), 0o755) }},
		{"rmdir", func() error { return owner.Rmdir(pick()) }},
		{"setacl", func() error {
			return owner.SetACL(pick(), string(subjects[1+rng.Intn(2)]), append(specs, "n", "rwlda")[rng.Intn(len(specs)+2)])
		}},
		{"rename file", func() error {
			d := pick()
			if err := vfs.WriteFile(owner, d+"/f", []byte("x"), 0o644); err != nil {
				return err
			}
			return owner.Rename(d+"/f", pick()+"/g")
		}},
		{"rename directory", func() error {
			tops := rng.Perm(3)
			return owner.Rename(dirs[3*tops[0]], dirs[3*tops[1]])
		}},
		{"oob rewrite", func() error { return vfs.WriteFile(fs, pick()+"/"+ACLFileName, oob(), 0o644) }},
		{"oob delete", func() error { return os.Remove(hostPath(pick() + "/" + ACLFileName)) }},
		{"oob replace directory", func() error {
			hp := hostPath(pick())
			if err := os.RemoveAll(hp); err != nil {
				return err
			}
			if err := os.Mkdir(hp, 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(hp, ACLFileName), oob(), 0o644)
		}},
		{"oob mkdir without ACL", func() error { return os.MkdirAll(hostPath(pick()), 0o755) }},
	}
	check := func(after string) {
		t.Helper()
		for _, dir := range append([]string{"/"}, dirs...) {
			want, wantErr := referenceACL(fs, dir)
			for _, subject := range subjects {
				for _, right := range []acl.Rights{acl.R, acl.W, acl.L, acl.A} {
					got := ts.srv.checkDir(subject, dir, right)
					switch {
					case wantErr != nil:
						if vfs.AsErrno(got) != vfs.AsErrno(wantErr) {
							t.Fatalf("seed %d after %s: check(%s, %s, %v) = %v, reference %v", seed, after, subject, dir, right, got, wantErr)
						}
					case (got == nil) != want.Allows(string(subject), right) || got != nil && vfs.AsErrno(got) != vfs.EACCES:
						t.Fatalf("seed %d after %s: check(%s, %s, %v) = %v, reference list %q", seed, after, subject, dir, right, got, want.Encode())
					}
				}
			}
		}
	}
	worked := make(map[string]int)
	for i := 0; i < 150; i++ {
		s := steps[rng.Intn(len(steps))]
		if s.do() == nil {
			worked[s.name]++
		}
		after := fmt.Sprintf("step %d (%s)", i, s.name)
		check(after)
		if rng.Intn(3) == 0 {
			settleACLs()
			check(after + ", settled") // fills the cache
			check(after + ", cached")  // is served from it
		}
	}
	for _, s := range steps {
		if worked[s.name] == 0 {
			t.Errorf("seed %d: step %q never succeeded", seed, s.name)
		}
	}
	if h, inv := ts.srv.Stats.ACLHits.Load(), ts.srv.Stats.ACLInvalidations.Load(); h == 0 || inv == 0 {
		t.Errorf("seed %d: %d hits, %d invalidations: the cache was not exercised", seed, h, inv)
	}
	t.Logf("seed %d: steps that worked %v; %d hits, %d misses, %d invalidations", seed, worked,
		ts.srv.Stats.ACLHits.Load(), ts.srv.Stats.ACLMisses.Load(), ts.srv.Stats.ACLInvalidations.Load())
}

// TestACLFollowsDirectoryRename: a renamed directory takes its ACLs,
// and those of its children, to the new name and leaves no entry
// behind under the old one.
func TestACLFollowsDirectoryRename(t *testing.T) {
	ts := startServer(t, nil)
	owner := ts.client(t, "owner.sim")
	for _, d := range []string{"/a", "/a/x"} {
		if err := owner.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.SetACL("/a", "hostname:u1.sim", "rl"); err != nil {
		t.Fatal(err)
	}
	if err := owner.SetACL("/a/x", "hostname:u2.sim", "rl"); err != nil {
		t.Fatal(err)
	}
	settleACLs()
	allowed := func(subject auth.Subject, dir string) bool { return ts.srv.checkDir(subject, dir, acl.L) == nil }
	if !allowed("hostname:u1.sim", "/a") || !allowed("hostname:u2.sim", "/a/x") || ts.cachedACLs() != 2 {
		t.Fatalf("before the rename: %d entries cached, want /a and /a/x", ts.cachedACLs())
	}
	if err := owner.Rename("/a", "/z"); err != nil {
		t.Fatal(err)
	}
	if !allowed("hostname:u1.sim", "/z") || !allowed("hostname:u2.sim", "/z/x") {
		t.Error("the ACLs did not follow the directory to its new name")
	}
	// The old names no longer exist: they answer from the root's list.
	if allowed("hostname:u1.sim", "/a") || allowed("hostname:u2.sim", "/a/x") {
		t.Error("the old name still grants what the renamed directory granted")
	}
	ts.srv.aclsMu.RLock()
	defer ts.srv.aclsMu.RUnlock()
	for _, old := range []string{"/a", "/a/x"} {
		if ts.srv.acls[old] != nil {
			t.Errorf("entry for %s left behind", old)
		}
	}
}

// TestACLCheckAllocationGuards pins what the path-verb preamble costs
// the heap once a directory's list is cached: the stat of the ACL file
// may allocate its path, the normalization of a clean path nothing.
func TestACLCheckAllocationGuards(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	settleACLs()
	subject := auth.Subject("hostname:owner.sim")
	if err := ts.srv.checkDir(subject, "/d", acl.L); err != nil {
		t.Fatal(err)
	}
	hits := ts.srv.Stats.ACLHits.Load()
	if n := testing.AllocsPerRun(200, func() {
		if err := ts.srv.checkParent(subject, "/d/f", acl.L); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("warm checkParent allocates %.1f/op, want <= 2", n)
	}
	if got := ts.srv.Stats.ACLHits.Load() - hits; got < 200 {
		t.Errorf("%d cache hits over 200 checks: the guard measured the miss path", got)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := normPath("/sp5/rel03/arch/lib/lib0042.so"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("normPath of a clean path allocates %.1f/op, want 0", n)
	}
}
