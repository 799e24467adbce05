package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// TestNegativeEntryRules walks the life of a cached "not there" through
// the rule attr entries obey: served inside the horizon, kept by a
// renewal that finds the version unchanged, dropped by a changed
// version, by a local write and by a positive fill, and never recorded
// for an error other than ENOENT.
func TestNegativeEntryRules(t *testing.T) {
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	absent := func(what string, wantStats int64) {
		t.Helper()
		if _, err := fs.Stat("/lib.so"); vfs.AsErrno(err) != vfs.ENOENT {
			t.Fatalf("%s: stat = %v, want ENOENT", what, err)
		}
		if got := inner.stats.Load(); got != wantStats {
			t.Fatalf("%s: %d inner stats, want %d", what, got, wantStats)
		}
	}
	absent("miss", 1)
	absent("hit inside the horizon", 1)
	if _, err := fs.Open("/lib.so", vfs.O_RDONLY, 0); vfs.AsErrno(err) != vfs.ENOENT || inner.opens.Load() != 0 {
		t.Fatalf("read-only open of a cached absence = %v after %d inner opens, want ENOENT and none", err, inner.opens.Load())
	}
	if st := fs.Stats(); st.AttrHits != 1 || st.AttrMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1: a negative hit counts as an attr hit", st.AttrHits, st.AttrMisses)
	}

	clk.Advance(2 * time.Second)
	absent("renewal, version unchanged", 1)
	if st := fs.Stats(); st.Renewals != 2 || st.Revalidations != 1 {
		t.Fatalf("renewals/revalidations = %d/%d, want 2/1", st.Renewals, st.Revalidations)
	}

	// Another client creates the file: the version moves, and the next
	// renewal must not keep the absence.
	if err := vfs.WriteFile(inner.FileSystem, "/lib.so", []byte("elf"), 0o644); err != nil {
		t.Fatal(err)
	}
	inner.bump("/lib.so")
	absent("stale inside the horizon", 1)
	clk.Advance(2 * time.Second)
	if fi, err := fs.Stat("/lib.so"); err != nil || fi.Size != 3 {
		t.Fatalf("stat after the version moved = %+v, %v; want the 3-byte file", fi, err)
	}

	// The positive entry took the slot; removing the file through the
	// cache drops it, and the absence is learnt again from the server.
	if err := fs.Unlink("/lib.so"); err != nil {
		t.Fatal(err)
	}
	stats := inner.stats.Load()
	absent("after own unlink", stats+1)
	// A create through the cache is seen at once, not after a horizon.
	if err := vfs.WriteFile(fs, "/lib.so", []byte("elf2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fi, err := fs.Stat("/lib.so"); err != nil || fi.Size != 4 {
		t.Fatalf("stat after own create = %+v, %v; want the 4-byte file", fi, err)
	}

	// ENOTDIR is not "not there": nothing is recorded for it.
	for i := 0; i < 2; i++ {
		if _, err := fs.Stat("/lib.so/under"); vfs.AsErrno(err) != vfs.ENOTDIR {
			t.Fatalf("stat beneath a file = %v, want ENOTDIR", err)
		}
	}
	if got := inner.stats.Load(); got != stats+4 {
		t.Fatalf("%d inner stats, want %d: an ENOTDIR answer must not be cached", got, stats+4)
	}
}

// TestNegativeEntryTTLOnly: without leases a negative entry is dropped,
// not revalidated, when the horizon lapses; and the metadata budget
// bounds negative entries like any other.
func TestNegativeEntryTTLOnly(t *testing.T) {
	inner := newCountingFS(t)
	inner.noLease = true
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second, MaxPaths: 8})
	for i := 0; i < 2; i++ {
		if _, err := fs.Stat("/nope"); vfs.AsErrno(err) != vfs.ENOENT {
			t.Fatal(err)
		}
	}
	if got := inner.stats.Load(); got != 1 {
		t.Fatalf("%d inner stats inside the horizon, want 1", got)
	}
	clk.Advance(2 * time.Second)
	if _, err := fs.Stat("/nope"); vfs.AsErrno(err) != vfs.ENOENT || inner.stats.Load() != 2 {
		t.Fatalf("stat past the horizon = %v after %d inner stats, want ENOENT fetched again (2)", err, inner.stats.Load())
	}
	for i := 0; i < 100; i++ {
		fs.Stat(fmt.Sprintf("/probe%d", i))
	}
	fs.mu.Lock()
	n, dirs := fs.paths.Len(), fs.dirs["/"]
	fs.mu.Unlock()
	if n > 8 || dirs != n {
		t.Fatalf("%d paths tracked (%d counted under /) after 100 absent probes, want at most MaxPaths = 8 and equal", n, dirs)
	}
}

// TestNegativeEntryRevalidateRace is TestRevalidateRaceFallsToMiss for
// an absence: while this renewal is on the wire a concurrent one sees
// the changed version, drops the entry and records the new version;
// this one then compares equal. The recheck must notice the entry is
// gone and ask the server, not answer ENOENT for a file that exists.
func TestNegativeEntryRevalidateRace(t *testing.T) {
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	if _, err := fs.Stat("/f"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(inner.FileSystem, "/f", []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	inner.bump("/f")
	clk.Advance(2 * time.Second)
	inner.onLease = func(path string) {
		inner.onLease = nil
		fs.mu.Lock()
		if ps, ok := fs.paths.Peek(path); ok {
			fs.invalidateLocked(path, ps)
			ps.version = 1
			ps.haveVersion = true
		}
		fs.mu.Unlock()
	}
	fi, err := fs.Stat("/f")
	if err != nil || fi.Size != 3 {
		t.Fatalf("raced stat = %+v, %v; want the 3-byte file", fi, err)
	}
	if got := inner.stats.Load(); got != 2 {
		t.Fatalf("raced stat issued %d inner stats, want 2 (refetch, not a phantom absence)", got)
	}
}

// TestFillStopsAtKnownSize: a page fill under a valid attr entry reads
// up to the size that entry gives and does not ask for the EOF; without
// one the probe stays.
func TestFillStopsAtKnownSize(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB, a quarter page
	for _, p := range []string{"/known", "/unknown"} {
		if err := vfs.WriteFile(inner.FileSystem, p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) int64 {
		t.Helper()
		before := inner.preads.Load()
		f, err := fs.Open(path, vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 64<<10)
		n, err := f.Pread(buf, 0)
		if err != nil || !bytes.Equal(buf[:n], data) {
			t.Fatalf("%s: read %d bytes, %v; want the %d written", path, n, err, len(data))
		}
		if n, err := f.Pread(buf, int64(len(data))); n != 0 || err != nil {
			t.Fatalf("%s: read at EOF = %d, %v; want 0, nil", path, n, err)
		}
		return inner.preads.Load() - before
	}
	if _, err := fs.Stat("/known"); err != nil {
		t.Fatal(err)
	}
	if got := read("/known"); got != 1 {
		t.Errorf("fill with the size known cost %d preads, want 1", got)
	}
	if got := read("/unknown"); got != 2 {
		t.Errorf("fill with no attr entry cost %d preads, want 2 (data + EOF probe)", got)
	}
	fs.mu.Lock()
	used := fs.data.Used()
	fs.mu.Unlock()
	if used != 2*int64(len(data)) {
		t.Errorf("page tier holds %d bytes for two %d-byte files", used, len(data))
	}
}

// ---- two caches over one real server --------------------------------

// shimFS sits between a cache and its Chirp connection: it counts the
// stats that reach the wire and can start refusing leases, as a server
// that predates them does.
type shimFS struct {
	vfs.FileSystem
	stats  atomic.Int64
	refuse atomic.Bool
}

func (s *shimFS) Stat(path string) (vfs.FileInfo, error) {
	s.stats.Add(1)
	return s.FileSystem.Stat(path)
}

func (s *shimFS) Capabilities() vfs.Capability {
	c := vfs.Capabilities(s.FileSystem)
	c.Leaser = s
	return c
}

func (s *shimFS) Lease(path string) (vfs.Lease, error) {
	if s.refuse.Load() {
		return vfs.Lease{}, vfs.EINVAL
	}
	return vfs.Capabilities(s.FileSystem).Leaser.Lease(path)
}

func (s *shimFS) LeaseBreak(id int64) error {
	return vfs.Capabilities(s.FileSystem).Leaser.LeaseBreak(id)
}

// leaseRig is one chirp.Server on a simulated network with as many
// connections as the test dials.
type leaseRig struct {
	t  *testing.T
	nw *netsim.Network
}

func newLeaseRig(t *testing.T) *leaseRig {
	t.Helper()
	srv, err := chirp.NewServer(t.TempDir(), chirp.ServerConfig{
		Name:      "fs.sim",
		Owner:     "hostname:owner.sim",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		// Horizons run on the caches' fake clock; the server's own TTL
		// only has to outlast the test.
		LeaseTTL: time.Minute,
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
	return &leaseRig{t: t, nw: nw}
}

func (r *leaseRig) dial() *chirp.Client {
	r.t.Helper()
	c, err := chirp.Dial(chirp.ClientConfig{
		Dial: func() (net.Conn, error) {
			return r.nw.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { c.Close() })
	return c
}

const rigHorizon = time.Second

// cached dials a connection and puts a cache on it, on clk.
func (r *leaseRig) cached(clk *fakeClock, opt Options) (*FS, *shimFS) {
	shim := &shimFS{FileSystem: r.dial()}
	opt.AttrTTL = rigHorizon
	opt.Clock = clk.Now
	fs := New(shim, opt)
	r.t.Cleanup(func() { fs.Close() })
	return fs, shim
}

// TestDirRenameDropsSubtree: a renamed directory takes its subtree
// along, so what is cached beneath the old name (present) and the new
// one (absent) is wrong afterwards — for the client that renamed at
// once, for another client no later than one horizon. Before, the
// rename touched four paths on both sides and /d/f was revalidated
// forever.
func TestDirRenameDropsSubtree(t *testing.T) {
	rig := newLeaseRig(t)
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	mine, _ := rig.cached(clk, Options{})
	other, _ := rig.cached(clk, Options{})
	if err := mine.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(mine, "/d/f", []byte("old bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	look := func(fs *FS, path string) string {
		t.Helper()
		return observe(fs, path).String()
	}
	const there, gone = `file "old bytes"`, "no such file or directory"
	for _, fs := range []*FS{mine, other} {
		if got := look(fs, "/d/f"); got != there {
			t.Fatalf("warm-up read of /d/f = %s", got)
		}
		if got := look(fs, "/e/f"); got != gone {
			t.Fatalf("warm-up read of /e/f = %s, want ENOENT", got)
		}
	}
	// The renaming client holds no attr entry for /d itself: it cannot
	// tell that /d is not a directory, so it must assume one.
	if err := mine.Rename("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	if got := look(mine, "/d/f"); got != gone {
		t.Errorf("renaming client still sees /d/f: %s", got)
	}
	if got := look(mine, "/e/f"); got != there {
		t.Errorf("renaming client sees /e/f as %s, want the file that moved there", got)
	}
	// The other client may lag by one horizon, and not by more.
	for i := 0; i < 3; i++ {
		clk.Advance(rigHorizon + time.Millisecond)
		if got := look(other, "/d/f"); got != gone {
			t.Errorf("horizon %d: other client still sees /d/f: %s", i+1, got)
		}
		if got := look(other, "/e/f"); got != there {
			t.Errorf("horizon %d: other client sees /e/f as %s, want the file that moved there", i+1, got)
		}
	}
	// Back again, this time with /e known to be a directory.
	if got := look(mine, "/e"); got != "dir" {
		t.Fatalf("/e = %s", got)
	}
	if err := mine.Rename("/e", "/d"); err != nil {
		t.Fatal(err)
	}
	if d, e := look(mine, "/d/f"), look(mine, "/e/f"); d != there || e != gone {
		t.Errorf("after renaming back: /d/f is %s and /e/f is %s", d, e)
	}
}

// ---- the model test --------------------------------------------------

// view is what one Stat plus one whole-file read say about a path.
type view struct {
	errno vfs.Errno
	dir   bool
	data  string
}

func (v view) String() string {
	switch {
	case v.errno != vfs.EOK:
		return v.errno.Error()
	case v.dir:
		return "dir"
	}
	return fmt.Sprintf("file %q", v.data)
}

func observe(fs vfs.FileSystem, path string) view {
	fi, err := fs.Stat(path)
	if err != nil {
		return view{errno: vfs.AsErrno(err)}
	}
	if fi.IsDir {
		return view{dir: true}
	}
	data, err := vfs.ReadFile(fs, path)
	if err != nil {
		return view{errno: vfs.AsErrno(err)}
	}
	if int64(len(data)) != fi.Size {
		return view{data: fmt.Sprintf("%s (stat says %d bytes)", data, fi.Size)}
	}
	return view{data: string(data)}
}

// TestNegativeEntryModel drives two caches over one real server with
// seeded random steps and compares, after every step, what each cache
// says about every path of a small universe with what an uncached
// connection says (the method of chirp's TestACLCacheModel). A cache
// must agree at once, except on a path the other client changed less
// than one horizon ago; its own changes it must see at once.
func TestNegativeEntryModel(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runNegativeEntryModel(t, seed) })
	}
}

func runNegativeEntryModel(t *testing.T, seed int64) {
	const steps = 220
	rig := newLeaseRig(t)
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	ref := rig.dial()
	var caches [2]*FS
	var shims [2]*shimFS
	// The second seed squeezes one cache's metadata budget below the
	// universe, so entries also leave by eviction.
	caches[0], shims[0] = rig.cached(clk, Options{})
	caches[1], shims[1] = rig.cached(clk, Options{MaxPaths: map[int64]int{1: 0, 2: 6}[seed]})

	dirs := []string{"/a", "/b", "/c"}
	var files, universe []string
	for _, d := range dirs {
		universe = append(universe, d)
		for _, n := range []string{"x", "y"} {
			files = append(files, d+"/"+n)
		}
	}
	files = append(files, "/t")
	universe = append(universe, files...)
	for _, d := range dirs[:2] {
		if err := ref.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	exists := func(path string) (present, dir bool) {
		fi, err := ref.Stat(path)
		return err == nil, err == nil && fi.IsDir
	}
	// staleUntil[c][p]: until then cache c may still hold what p was
	// before the other client changed it.
	var staleUntil [2]map[string]time.Time
	for c := range staleUntil {
		staleUntil[c] = make(map[string]time.Time)
	}
	// changed records a successful change of paths by cache c: c dropped
	// what it knew of them, the other cache may lag by one horizon.
	changed := func(c int, paths ...string) {
		for _, p := range paths {
			delete(staleUntil[c], p)
			staleUntil[1-c][p] = clk.Now().Add(rigHorizon)
		}
	}
	within := func(roots ...string) []string {
		var out []string
		for _, p := range universe {
			for _, r := range roots {
				if p == r || strings.HasPrefix(p, r+"/") {
					out = append(out, p)
					break
				}
			}
		}
		return out
	}
	write := func(fs *FS, path string, flags int, tag string) error {
		f, err := fs.Open(path, flags, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Pwrite([]byte(tag), 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	worked := make(map[string]int)
	var negHits, negDrops int
	var servedAbsent [2]map[string]bool
	for c := range servedAbsent {
		servedAbsent[c] = make(map[string]bool)
	}

	for step := 0; step < steps; step++ {
		c := rng.Intn(2)
		fs := caches[c]
		tag := fmt.Sprintf("s%d-%s", step, strings.Repeat("z", rng.Intn(40)))
		var kind string
		var err error
		switch k := rng.Intn(100); {
		case k < 14:
			kind = "create"
			p := pick(files)
			if err = write(fs, p, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, tag); err == nil {
				changed(c, p)
			}
		case k < 24:
			kind = "exclusive create"
			p := pick(files)
			want := vfs.EOK
			if _, parentIsDir := exists(pathutil.Dir(p)); !parentIsDir {
				want = vfs.ENOENT
			} else if present, _ := exists(p); present {
				want = vfs.EEXIST
			}
			err = write(fs, p, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, tag)
			if got := vfs.AsErrno(err); got != want {
				t.Fatalf("seed %d step %d: exclusive create of %s through cache %d = %v, want %v", seed, step, p, c, got, want)
			}
			if err == nil {
				changed(c, p)
			}
		case k < 34:
			kind = "unlink"
			p := pick(files)
			if err = fs.Unlink(p); err == nil {
				changed(c, p)
			}
		case k < 44:
			kind = "rename file"
			p, q := pick(files), pick(files)
			if err = fs.Rename(p, q); err == nil {
				changed(c, p, q)
			}
		case k < 56:
			kind = "rename directory"
			// Prefer a source that exists and a target that does not:
			// the rename that succeeds and moves children.
			d, e := pick(dirs), pick(dirs)
			for i := 0; i < 4; i++ {
				if present, _ := exists(d); !present {
					d = pick(dirs)
				}
				if present, _ := exists(e); present {
					e = pick(dirs)
				}
			}
			if err = fs.Rename(d, e); err == nil && d != e {
				changed(c, within(d, e)...)
				if children, _ := exists(e + "/x"); children {
					worked["rename directory with children"]++
				}
			}
		case k < 62:
			kind = "mkdir"
			d := pick(dirs)
			if err = fs.Mkdir(d, 0o755); err == nil {
				changed(c, d)
			}
		case k < 68:
			kind = "rmdir"
			d := pick(dirs)
			if err = fs.Rmdir(d); err == nil {
				changed(c, d)
			}
		case k < 76:
			kind = "write through"
			p := pick(files)
			if err = write(fs, p, vfs.O_WRONLY|vfs.O_SYNC, tag); err == nil {
				changed(c, p)
			}
		case k < 84:
			kind = "write back"
			p := pick(files)
			if err = write(fs, p, vfs.O_WRONLY, tag); err == nil {
				changed(c, p)
			}
		case k < 97:
			kind = "horizon lapse"
			clk.Advance(rigHorizon + time.Millisecond)
		default:
			kind = "legacy server"
			// From here on cache 1 talks to a server that refuses
			// leases: TTL-only, the same staleness bound.
			shims[1].refuse.Store(true)
		}
		if err == nil {
			worked[kind]++
		}

		for ci, cache := range caches {
			for _, p := range universe {
				wire := shims[ci].stats.Load()
				hits := cache.Stats().AttrHits
				got := observe(cache, p)
				local := shims[ci].stats.Load() == wire && cache.Stats().AttrHits > hits
				switch {
				case got.errno == vfs.ENOENT && local:
					negHits++
					servedAbsent[ci][p] = true
				case got.errno == vfs.EOK && servedAbsent[ci][p]:
					negDrops++
					delete(servedAbsent[ci], p)
				}
				if clk.Now().Before(staleUntil[ci][p]) {
					continue
				}
				if want := observe(ref, p); got != want {
					t.Fatalf("seed %d step %d (%s by cache %d, err %v): cache %d says %s is %v, the server says %v",
						seed, step, kind, c, err, ci, p, got, want)
				}
			}
		}
	}

	for _, kind := range []string{"create", "exclusive create", "unlink", "rename file", "rename directory",
		"rename directory with children", "mkdir", "rmdir", "write through", "write back", "horizon lapse"} {
		if worked[kind] == 0 {
			t.Errorf("seed %d: no %q step succeeded in %d steps", seed, kind, steps)
		}
	}
	for ci, cache := range caches {
		cache.mu.Lock()
		counted := 0
		for _, n := range cache.dirs {
			counted += n
		}
		if tracked := cache.paths.Len(); counted != tracked {
			t.Errorf("seed %d: cache %d counts %d paths per directory and tracks %d", seed, ci, counted, tracked)
		}
		cache.mu.Unlock()
	}
	if negHits == 0 || negDrops == 0 {
		t.Errorf("seed %d: %d negative hits and %d negative entries dropped, want both to happen", seed, negHits, negDrops)
	}
	t.Logf("seed %d: %d negative hits, %d dropped; steps %v", seed, negHits, negDrops, worked)
}
