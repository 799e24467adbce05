package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/obs"
	"tss/internal/obs/obstest"
	"tss/internal/vfs"
)

// countingFS wraps an inner filesystem and counts the operations that
// reach it, optionally serving leases from a fake version table — the
// RPC ledger every caching assertion reads.
type countingFS struct {
	vfs.FileSystem
	stats, readdirs, opens atomic.Int64
	preads, pwrites        atomic.Int64
	leases, breaks         atomic.Int64
	noLease                bool
	// onLease, if set, runs at the start of every Lease call — a hook
	// for interleaving cache mutations "while the RPC is on the wire".
	onLease  func(path string)
	mu       sync.Mutex
	ops      []string // RPC order ledger: "stat", "readdir", "lease"
	versions map[string]int64
	nextID   int64
	leaseTTL time.Duration
}

func newCountingFS(t *testing.T) *countingFS {
	t.Helper()
	inner, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &countingFS{FileSystem: inner, versions: make(map[string]int64), leaseTTL: time.Second}
}

func (c *countingFS) op(name string) {
	c.mu.Lock()
	c.ops = append(c.ops, name)
	c.mu.Unlock()
}

func (c *countingFS) Stat(path string) (vfs.FileInfo, error) {
	c.stats.Add(1)
	c.op("stat")
	return c.FileSystem.Stat(path)
}

func (c *countingFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	c.readdirs.Add(1)
	c.op("readdir")
	return c.FileSystem.ReadDir(path)
}

func (c *countingFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	c.opens.Add(1)
	f, err := c.FileSystem.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

// bump simulates another client mutating path: the version advances.
func (c *countingFS) bump(path string) {
	c.mu.Lock()
	c.versions[path]++
	c.mu.Unlock()
}

func (c *countingFS) Lease(path string) (vfs.Lease, error) {
	c.leases.Add(1)
	c.op("lease")
	if h := c.onLease; h != nil {
		h(path)
	}
	if c.noLease {
		return vfs.Lease{}, vfs.EINVAL
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return vfs.Lease{ID: c.nextID, Version: c.versions[path], TTL: c.leaseTTL}, nil
}

func (c *countingFS) LeaseBreak(id int64) error {
	c.breaks.Add(1)
	return nil
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) Pread(p []byte, off int64) (int, error) {
	f.fs.preads.Add(1)
	return f.File.Pread(p, off)
}

func (f *countingFile) Pwrite(p []byte, off int64) (int, error) {
	f.fs.pwrites.Add(1)
	return f.File.Pwrite(p, off)
}

// fakeClock is a manual time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newCache(t *testing.T, inner vfs.FileSystem, opt Options) (*FS, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	opt.Clock = clk.Now
	fs := New(inner, opt)
	t.Cleanup(func() { fs.Close() })
	return fs, clk
}

func TestAttrCacheHitsWithinTTL(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := fs.Stat("/f"); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.stats.Load(); got != 1 {
		t.Fatalf("10 stats issued %d inner stats, want 1", got)
	}
	s := fs.Stats()
	if s.AttrHits != 9 || s.AttrMisses != 1 {
		t.Fatalf("attr hits/misses = %d/%d, want 9/1", s.AttrHits, s.AttrMisses)
	}
}

func TestDirentCacheHitsWithinTTL(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ents, err := fs.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name != "f" {
			t.Fatalf("listing = %v", ents)
		}
	}
	if got := inner.readdirs.Load(); got != 1 {
		t.Fatalf("5 listings issued %d inner readdirs, want 1", got)
	}
}

func TestRevalidationKeepsCacheAlive(t *testing.T) {
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	// Horizon lapses; the version is unchanged, so one lease RPC must
	// revalidate the attr entry with no inner stat.
	clk.Advance(2 * time.Second)
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	if got := inner.stats.Load(); got != 1 {
		t.Fatalf("revalidated stat issued %d inner stats, want 1", got)
	}
	s := fs.Stats()
	if s.Revalidations != 1 {
		t.Fatalf("revalidations = %d, want 1", s.Revalidations)
	}
}

func TestVersionChangeDropsCache(t *testing.T) {
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	// Another client rewrites the file: version moves.
	if err := vfs.WriteFile(inner, "/f", []byte("newer"), 0o644); err != nil {
		t.Fatal(err)
	}
	inner.bump("/f")
	clk.Advance(2 * time.Second)
	fi, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 5 {
		t.Fatalf("stale attr after version change: size = %d, want 5", fi.Size)
	}
	if got := inner.stats.Load(); got != 2 {
		t.Fatalf("inner stats = %d, want 2 (refetch after invalidation)", got)
	}
	if s := fs.Stats(); s.Invalidations == 0 {
		t.Fatal("version change did not count an invalidation")
	}
}

func TestDegradedModeDropsAtTTL(t *testing.T) {
	inner := newCountingFS(t)
	inner.noLease = true // pre-lease server: every lease answers EINVAL
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	if got := inner.stats.Load(); got != 1 {
		t.Fatalf("TTL-mode hit issued %d inner stats, want 1", got)
	}
	clk.Advance(2 * time.Second)
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	if got := inner.stats.Load(); got != 2 {
		t.Fatalf("expired TTL-mode entry issued %d inner stats, want 2", got)
	}
	// Exactly one lease probe: the EINVAL was memoized.
	if got := inner.leases.Load(); got != 1 {
		t.Fatalf("degraded cache issued %d lease probes, want 1", got)
	}
}

func TestPageCacheServesRereads(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second, PageSize: 8})
	data := []byte("0123456789abcdef0123")
	if err := vfs.WriteFile(inner, "/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, len(data))
	n, err := f.Pread(buf, 0)
	if err != nil || n != len(data) {
		t.Fatalf("pread = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("payload mismatch: %q", buf)
	}
	fills := inner.preads.Load()
	// Re-read, same handle: all pages must come from cache.
	for i := 0; i < 3; i++ {
		if _, err := f.Pread(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.preads.Load(); got != fills {
		t.Fatalf("re-reads issued %d extra inner preads", got-fills)
	}
	// And a second handle shares the same pages.
	f2, err := fs.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.Pread(buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := inner.preads.Load(); got != fills {
		t.Fatalf("second handle issued %d extra inner preads", got-fills)
	}
}

func TestWriteBackCoalesces(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	f, err := fs.Open("/w", vfs.O_WRONLY|vfs.O_CREAT, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential small writes must coalesce into one flush at close.
	for i := 0; i < 16; i++ {
		if _, err := f.Pwrite([]byte("chunk-16-bytes!!"), int64(i*16)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.pwrites.Load(); got != 0 {
		t.Fatalf("write-back sent %d inner pwrites before close, want 0", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := inner.pwrites.Load(); got != 1 {
		t.Fatalf("close flushed %d inner pwrites, want 1", got)
	}
	got, err := vfs.ReadFile(inner, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 256 {
		t.Fatalf("flushed %d bytes, want 256", len(got))
	}
}

func TestWriteBackReadsOwnWrites(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("aaaaaaaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/f", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Pwrite([]byte("BB"), 3); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := f.Pread(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "aaaBBaaa" {
		t.Fatalf("read-own-write = %q, want aaaBBaaa", buf[:n])
	}
	// The write extends past EOF after a flushless overlay too.
	if _, err := f.Pwrite([]byte("ZZ"), 10); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 16)
	n, err = f.Pread(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 || string(big[8:12]) != "\x00\x00ZZ" {
		t.Fatalf("extended read = %d %q", n, big[:n])
	}
}

func TestOSyncWritesThrough(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	f, err := fs.Open("/s", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_SYNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if got := inner.pwrites.Load(); got != 1 {
		t.Fatalf("O_SYNC write reached inner %d times, want 1 (write-through)", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalWriteInvalidates(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Minute})
	if err := vfs.WriteFile(inner, "/f", []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	// A write through the cache itself must drop the cached state even
	// well inside the TTL.
	if err := vfs.WriteFile(fs, "/f", []byte("twotwo"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 6 {
		t.Fatalf("stat after own write = %d bytes, want 6", fi.Size)
	}
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("listing after unlink = %v, want empty", ents)
	}
}

func TestTruncateDropsPages(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Minute, PageSize: 8})
	if err := vfs.WriteFile(inner, "/f", []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 16)
	if _, err := f.Pread(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/f", 4); err != nil {
		t.Fatal(err)
	}
	n, err := f.Pread(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("read after truncate = %d bytes, want 4 (stale pages served)", n)
	}
}

// corruptChecksummer reports a digest that never matches, standing in
// for a replica whose disk corrupted the file after the digest RPC's
// view of it.
type corruptChecksummer struct {
	*countingFS
}

func (c *corruptChecksummer) Checksum(path, algo string) (string, error) {
	return "00000000", nil
}

func TestVerifiedFillRejectsMismatch(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, &corruptChecksummer{inner}, Options{AttrTTL: time.Second, Verify: true, Clock: time.Now})
	defer fs.Close()
	if err := vfs.WriteFile(inner, "/f", []byte("short file"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 32)
	_, err = f.Pread(buf, 0)
	if !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("mismatched fill = %v, want ErrIntegrity", err)
	}
	if s := fs.Stats(); s.VerifyFails != 1 {
		t.Fatalf("verify_fails = %d, want 1", s.VerifyFails)
	}
}

// TestRevalidateRaceFallsToMiss reproduces the lost-entry race:
// revalidate drops f.mu across the lease RPC, and a concurrent
// renewal of the same path that observes the changed version
// invalidates the entry and records the new version. This renewal
// then compares equal and reports fresh — over a nil attr. The hit
// path must recheck the entry and fall through to a refetch instead
// of dereferencing it.
func TestRevalidateRaceFallsToMiss(t *testing.T) {
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	inner.bump("/f")
	clk.Advance(2 * time.Second)
	// While this renewal is "on the wire", the concurrent one wins:
	// it invalidates and installs the post-write version.
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
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 3 {
		t.Fatalf("raced stat size = %d, want 3", fi.Size)
	}
	if got := inner.stats.Load(); got != 2 {
		t.Fatalf("raced stat issued %d inner stats, want 2 (refetch, not a phantom hit)", got)
	}
}

// TestRevalidateRaceReadDir is the listing flavor of the same race:
// the renewal must not serve a vanished dirent slice as an empty
// listing.
func TestRevalidateRaceReadDir(t *testing.T) {
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	inner.bump("/")
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
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "f" {
		t.Fatalf("raced listing = %v, want [f]", ents)
	}
	if got := inner.readdirs.Load(); got != 2 {
		t.Fatalf("raced listing issued %d inner readdirs, want 2", got)
	}
}

// TestMissLeasesBeforeFetch pins the fill order of the metadata miss
// paths: the lease must open the trust horizon before the fetch, so a
// write landing between the two RPCs moves the version and is caught
// at the next renewal. Fetch-then-lease would cache pre-write state
// under the post-write version and revalidate it forever.
func TestMissLeasesBeforeFetch(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	inner.mu.Lock()
	ops := append([]string(nil), inner.ops...)
	inner.mu.Unlock()
	want := []string{"lease", "stat", "lease", "readdir"}
	if len(ops) != len(want) {
		t.Fatalf("RPC sequence = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("RPC sequence = %v, want %v (lease must precede the fill)", ops, want)
		}
	}
}

// TestMaxPathsBoundsMetadata walks more paths than the metadata budget
// and checks the tier stays bounded, evicted paths release their
// leases, and a local write leaves no empty husk entry behind.
func TestMaxPathsBoundsMetadata(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Minute, MaxPaths: 4})
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/f%d", i)
		if err := vfs.WriteFile(inner, path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	n := fs.paths.Len()
	fs.mu.Unlock()
	if n > 4 {
		t.Fatalf("metadata tier holds %d paths, budget 4", n)
	}
	// The 8 evicted paths held live leases; each must have been
	// released, not left to server TTL.
	if got := inner.breaks.Load(); got != 8 {
		t.Fatalf("evictions released %d leases, want 8", got)
	}
	// A write through the cache empties the entry — and an entry with
	// no data, no version, and no lease must not stay indexed.
	if err := vfs.WriteFile(fs, "/f11", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	_, husk := fs.paths.Peek("/f11")
	fs.mu.Unlock()
	if husk {
		t.Fatal("written path left an empty metadata entry behind")
	}
}

// TestPwriteReadOnlyHandle writes to a lazily opened read-only handle:
// the cache must answer EBADF like the uncached stack, not buffer the
// bytes and panic flushing them through a nil descriptor at close.
func TestPwriteReadOnlyHandle(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Minute})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	opens := inner.opens.Load()
	f, err := fs.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.opens.Load(); got != opens {
		t.Fatalf("warm read-only open reached the server (%d opens)", got-opens)
	}
	pwrites := inner.pwrites.Load()
	if _, err := f.Pwrite([]byte("no"), 0); vfs.AsErrno(err) != vfs.EBADF {
		t.Fatalf("pwrite on read-only handle = %v, want EBADF", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after rejected write: %v", err)
	}
	if got := inner.pwrites.Load(); got != pwrites {
		t.Fatalf("rejected write reached the server %d times", got-pwrites)
	}
}

func TestCloseReleasesLeases(t *testing.T) {
	inner := newCountingFS(t)
	fs, _ := newCache(t, inner, Options{AttrTTL: time.Second})
	if err := vfs.WriteFile(inner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	granted := inner.leases.Load()
	if granted == 0 {
		t.Fatal("no lease acquired for cached path")
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := inner.breaks.Load(); got != granted {
		t.Fatalf("close released %d of %d leases", got, granted)
	}
}

// TestWarmMixCostsNoInnerCalls pins the claim the caching tier exists
// for: once a stat, listing, open, read-to-EOF and close mix has run
// over a working set, repeating it inside the lease horizon reaches the
// inner filesystem zero times — not one stat, readdir, open, pread or
// lease.
func TestWarmMixCostsNoInnerCalls(t *testing.T) {
	const files, size = 4, 10 << 10
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second})
	data := bytes.Repeat([]byte("warm-mix "), size/9+1)[:size]
	for i := 0; i < files; i++ {
		if err := vfs.WriteFile(inner, fmt.Sprintf("/f%d", i), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mix := func() {
		t.Helper()
		buf := make([]byte, 4<<10)
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/f%d", i)
			if _, err := fs.Stat(p); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.ReadDir("/"); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open(p, vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			for {
				n, err := f.Pread(buf, int64(len(got)))
				got = append(got, buf[:n]...)
				if n == 0 || err != nil {
					break
				}
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s read %d bytes, want the %d written", p, len(got), len(data))
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	counters := func() [5]int64 {
		return [5]int64{inner.stats.Load(), inner.readdirs.Load(), inner.opens.Load(),
			inner.preads.Load(), inner.leases.Load()}
	}

	mix() // cold: fills every tier
	cold := counters()
	clk.Advance(500 * time.Millisecond)
	mix() // warm: inside the horizon
	if warm := counters(); warm != cold {
		t.Fatalf("warm mix reached the inner filesystem: [stats readdirs opens preads leases] %v -> %v", cold, warm)
	}
}

// cacheSeries names the registry series behind each Stats field.
var cacheSeries = map[string]string{
	"AttrHits":      "cache.attr_hits",
	"AttrMisses":    "cache.attr_misses",
	"DirentHits":    "cache.dirent_hits",
	"DirentMisses":  "cache.dirent_misses",
	"PageHits":      "cache.page_hits",
	"PageMisses":    "cache.page_misses",
	"Renewals":      "cache.lease_renewals",
	"Revalidations": "cache.lease_revalidations",
	"Invalidations": "cache.invalidations",
	"Flushes":       "cache.writeback_flushes",
	"VerifyFails":   "cache.verify_fails",
}

// TestStatsAreRegistrySeries drives every tier, a renewal and a
// write-back flush, then checks each Stats field is the series the
// registry serves.
func TestStatsAreRegistrySeries(t *testing.T) {
	reg := obs.NewRegistry()
	inner := newCountingFS(t)
	fs, clk := newCache(t, inner, Options{AttrTTL: time.Second, Metrics: reg})
	if err := vfs.WriteFile(fs, "/f", []byte("counted"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := vfs.ReadFile(fs, "/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadDir("/"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat("/f"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * time.Second)
	}
	s := fs.Stats()
	if s.AttrHits+s.AttrMisses == 0 || s.PageHits+s.PageMisses == 0 || s.DirentHits+s.DirentMisses == 0 || s.Renewals == 0 || s.Flushes == 0 {
		t.Errorf("a tier went uncounted: %+v", s)
	}
	obstest.SameStore(t, reg, s, cacheSeries)
}
