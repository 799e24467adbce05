// Package cache provides the client-side caching tier of the storage
// stack: a vfs.FileSystem wrapper holding three caches — file
// attributes, directory listings, and file data pages — whose validity
// is governed by read leases from the server (DESIGN.md §14).
//
// The consistency model is version revalidation, not server push.
// Every cached item for a path is trusted for a bounded horizon; when
// the horizon lapses the cache renews its lease and compares the
// returned version with the one it last saw. An unchanged version
// proves every byte and attribute cached for the path is still
// current, so one round trip revalidates the attr entry, the dirent
// listing, and all data pages at once — that single cheap RPC standing
// in for a re-stat, a re-listing, and a re-read is where the syscall
// amplification of a network filesystem goes to die. A changed
// version drops everything for the path. Against a server that
// predates leases the wrapper degrades to plain TTL expiry: entries
// are dropped, not revalidated, when the horizon lapses; staleness
// stays bounded either way.
package cache

import (
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"tss/internal/obs"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// Defaults for the zero Options value.
const (
	DefaultAttrTTL   = 2 * time.Second
	DefaultDataBytes = 64 << 20
	DefaultPageSize  = 64 << 10
	// DefaultFlushAt bounds how much dirty write-back data a single
	// open file accumulates before it is pushed to the server.
	DefaultFlushAt = 1 << 20
	// DefaultMaxPaths bounds how many paths the metadata tier tracks
	// (attrs, listings, lease/version state), so a walk over a large
	// tree cannot grow client memory for the FS lifetime.
	DefaultMaxPaths = 16 << 10
)

// Options configures a cache.FS. The zero value enables all three
// tiers with the defaults above, write-back buffering, and no
// verification.
type Options struct {
	// AttrTTL is the validity horizon of cached attributes, listings,
	// and pages. With leases the horizon is renewed by revalidation;
	// without, it is the hard staleness bound.
	AttrTTL time.Duration
	// DataBytes is the page cache budget; 0 means DefaultDataBytes,
	// negative disables the data tier.
	DataBytes int64
	// PageSize is the data cache granule.
	PageSize int64
	// WriteThrough disables write-back buffering: every Pwrite goes to
	// the server before it returns. Opening a file with vfs.O_SYNC
	// forces the same per handle regardless of this setting.
	WriteThrough bool
	// FlushAt bounds the dirty extent of one open file.
	FlushAt int64
	// MaxPaths bounds the number of paths with cached metadata; the
	// least recently used path's attrs, listing, pages, and lease are
	// dropped past the bound. 0 means DefaultMaxPaths, negative
	// disables the bound.
	MaxPaths int
	// Verify digest-checks whole-file fills against the inner layer's
	// Checksummer, when it has one.
	Verify bool
	// Metrics registers hit/miss counters and per-tier latency
	// histograms under Layer; nil disables registration.
	Metrics *obs.Registry
	// Layer is the metric name prefix; empty means "cache".
	Layer string
	// Clock is the time source, a seam for deterministic tests; nil
	// means time.Now.
	Clock func() time.Time
}

// Stats counts cache activity; all fields are safe to read
// concurrently.
type Stats struct {
	AttrHits, AttrMisses     int64
	DirentHits, DirentMisses int64
	PageHits, PageMisses     int64
	// Renewals counts lease RPCs issued to extend a lapsed horizon;
	// Revalidations counts those that came back with an unchanged
	// version, keeping the cached state alive without refetching.
	Renewals, Revalidations int64
	// Invalidations counts paths whose cached state was dropped, by a
	// changed version or by a local write.
	Invalidations int64
	// Flushes counts write-back extents pushed to the server.
	Flushes int64
	// VerifyFails counts whole-file fills rejected by digest check.
	VerifyFails int64
}

// pageKey addresses one granule of one file in the shared data LRU.
type pageKey struct {
	path string
	idx  int64
}

// pathState is everything the cache knows about one path's validity:
// the last seen lease version, the trust horizon, the outstanding
// lease, and which tiers currently hold entries for the path.
type pathState struct {
	version     int64
	haveVersion bool
	validUntil  time.Time

	leaseID  int64
	leased   bool
	leaseExp time.Time

	attr *vfs.FileInfo
	// absent is the negative attr entry: Stat answered ENOENT under this
	// version. It lives and dies by the rule attr obeys, and at most one
	// of the two is set.
	absent  bool
	dirents []vfs.DirEntry
	pages   map[int64]struct{} // page indexes resident in the LRU
}

// known reports whether ps holds an answer for Stat: the attributes, or
// that the path is not there.
func (ps *pathState) known() bool { return ps.attr != nil || ps.absent }

// FS is the caching layer. It is safe for concurrent use; the caches
// are guarded by one mutex, which is never held across an RPC to the
// inner filesystem.
type FS struct {
	inner vfs.FileSystem
	opt   Options

	mu sync.Mutex
	// paths is the metadata tier: per-path attrs, listings, page
	// indexes, and lease/version state, count-budgeted at
	// Options.MaxPaths entries.
	paths *LRU[string, *pathState]
	// dirs counts the tracked paths per parent directory, so that a
	// rename can tell whether anything is cached beneath a name without
	// walking paths (Rename runs once per job output on the paper's
	// workload; a walk there costs a tenth of the unit).
	dirs map[string]int
	data *LRU[pageKey, []byte]
	// pendingRel queues lease IDs whose entries were evicted under
	// f.mu; the release RPCs run later, off the lock (drainReleases).
	pendingRel []int64
	// leaser is the inner layer's lease capability; degraded records
	// that it answered EINVAL (a pre-lease server) and the cache
	// stopped asking.
	leaser   vfs.Leaser
	degraded bool
	closed   bool

	stats struct {
		mu sync.Mutex
		s  Stats
	}

	// Registry shadows of Stats plus per-tier latency histograms (nil
	// without a registry; obs instruments are nil-safe).
	cAttrHits, cAttrMisses     *obs.Counter
	cDirentHits, cDirentMisses *obs.Counter
	cPageHits, cPageMisses     *obs.Counter
	cRenewals, cRevalidations  *obs.Counter
	cInvalidations, cFlushes   *obs.Counter
	cVerifyFails               *obs.Counter
	hAttr, hDirent, hRead      *obs.Histogram
}

var (
	_ vfs.FileSystem = (*FS)(nil)
	_ vfs.Capabler   = (*FS)(nil)
	_ vfs.Closer     = (*FS)(nil)
)

// New wraps inner in a caching tier.
func New(inner vfs.FileSystem, opt Options) *FS {
	if opt.AttrTTL <= 0 {
		opt.AttrTTL = DefaultAttrTTL
	}
	if opt.DataBytes == 0 {
		opt.DataBytes = DefaultDataBytes
	}
	if opt.PageSize <= 0 {
		opt.PageSize = DefaultPageSize
	}
	if opt.FlushAt <= 0 {
		opt.FlushAt = DefaultFlushAt
	}
	if opt.Clock == nil {
		opt.Clock = time.Now
	}
	if opt.Layer == "" {
		opt.Layer = "cache"
	}
	if opt.MaxPaths == 0 {
		opt.MaxPaths = DefaultMaxPaths
	}
	maxPaths := int64(opt.MaxPaths)
	if maxPaths < 0 {
		maxPaths = 1<<63 - 1
	}
	f := &FS{
		inner:  inner,
		opt:    opt,
		paths:  NewLRU[string, *pathState](maxPaths),
		dirs:   make(map[string]int),
		leaser: vfs.Capabilities(inner).Leaser,
	}
	// Capacity eviction of a path's metadata takes its pages with it
	// and queues a live lease for off-lock release. Nil-ing the tiers
	// on the struct matters beyond hygiene: a revalidate in flight
	// holds a pointer to the evicted state, and its hit-path recheck
	// must see the entries gone. The callback runs under f.mu (every
	// Put is).
	f.paths.OnEvict = func(path string, ps *pathState, _ int64) {
		if f.data != nil {
			for idx := range ps.pages {
				f.data.Remove(pageKey{path: path, idx: idx})
			}
		}
		ps.pages = nil
		ps.attr = nil
		ps.absent = false
		ps.dirents = nil
		if ps.leased && f.opt.Clock().Before(ps.leaseExp) {
			f.pendingRel = append(f.pendingRel, ps.leaseID)
		}
		ps.leased = false
		f.untrack(path)
	}
	if opt.DataBytes > 0 {
		f.data = NewLRU[pageKey, []byte](opt.DataBytes)
		// Keep the per-path page index honest when the budget evicts;
		// the callback runs under f.mu (every Put is).
		f.data.OnEvict = func(k pageKey, _ []byte, _ int64) {
			if ps, ok := f.paths.Peek(k.path); ok {
				delete(ps.pages, k.idx)
			}
		}
	}
	if reg := opt.Metrics; reg != nil {
		l := opt.Layer
		f.cAttrHits = reg.Counter(l + ".attr_hits")
		f.cAttrMisses = reg.Counter(l + ".attr_misses")
		f.cDirentHits = reg.Counter(l + ".dirent_hits")
		f.cDirentMisses = reg.Counter(l + ".dirent_misses")
		f.cPageHits = reg.Counter(l + ".page_hits")
		f.cPageMisses = reg.Counter(l + ".page_misses")
		f.cRenewals = reg.Counter(l + ".lease_renewals")
		f.cRevalidations = reg.Counter(l + ".lease_revalidations")
		f.cInvalidations = reg.Counter(l + ".invalidations")
		f.cFlushes = reg.Counter(l + ".writeback_flushes")
		f.cVerifyFails = reg.Counter(l + ".verify_fails")
		f.hAttr = reg.Histogram(l + ".attr")
		f.hDirent = reg.Histogram(l + ".dirent")
		f.hRead = reg.Histogram(l + ".read")
	}
	return f
}

// Stats returns a snapshot of the cache counters.
func (f *FS) Stats() Stats {
	f.stats.mu.Lock()
	defer f.stats.mu.Unlock()
	return f.stats.s
}

func (f *FS) count(c *obs.Counter, field *int64) {
	f.stats.mu.Lock()
	*field++
	f.stats.mu.Unlock()
	c.Inc()
}

// state returns the pathState for path, creating it if needed (which
// may evict the coldest path past the MaxPaths budget). Caller holds
// f.mu.
func (f *FS) state(path string) *pathState {
	if ps, ok := f.paths.Get(path); ok {
		return ps
	}
	ps := &pathState{}
	f.dirs[pathutil.Dir(path)]++
	f.paths.Put(path, ps, 1)
	return ps
}

// untrack takes a path that left f.paths out of the per-directory
// count. Caller holds f.mu.
func (f *FS) untrack(path string) {
	dir := pathutil.Dir(path)
	if f.dirs[dir]--; f.dirs[dir] <= 0 {
		delete(f.dirs, dir)
	}
}

// drainReleases issues the lease-release RPCs queued by metadata
// eviction, best effort. Called without f.mu.
func (f *FS) drainReleases() {
	f.mu.Lock()
	ids := f.pendingRel
	f.pendingRel = nil
	f.mu.Unlock()
	for _, id := range ids {
		f.releaseLease(id)
	}
}

// validLocked reports whether path's cached state may be served right
// now, without renewing. Caller holds f.mu.
func (f *FS) validLocked(ps *pathState, now time.Time) bool {
	return ps != nil && now.Before(ps.validUntil)
}

// revalidate makes path's cached state servable if it can: when the
// horizon has lapsed it renews the lease and compares versions. It
// returns true when cached entries for the path may be used. The lock
// is dropped across the lease RPC.
func (f *FS) revalidate(path string, ps *pathState, now time.Time) bool {
	if now.Before(ps.validUntil) {
		return true
	}
	if f.leaser == nil || f.degraded {
		// TTL-only mode: a lapsed horizon is a drop.
		f.invalidateLocked(path, ps)
		return false
	}
	oldID := ps.leaseID
	// An expired grant is already gone server-side; only a live one is
	// worth a release RPC.
	oldLive := ps.leased && now.Before(ps.leaseExp)
	ps.leased = false
	f.mu.Unlock()
	lease, err := f.leaser.Lease(path)
	if oldLive {
		// The old grant is dead to us either way; tell the server so
		// its table does not carry it to TTL expiry.
		f.releaseLease(oldID)
	}
	f.mu.Lock()
	f.count(f.cRenewals, &f.stats.s.Renewals)
	if err != nil {
		if vfs.AsErrno(err) == vfs.EINVAL {
			f.degraded = true
		}
		f.invalidateLocked(path, ps)
		return false
	}
	horizon := f.opt.AttrTTL
	if lease.TTL > 0 && lease.TTL < horizon {
		horizon = lease.TTL
	}
	now = f.opt.Clock()
	fresh := ps.haveVersion && ps.version == lease.Version
	if fresh {
		f.count(f.cRevalidations, &f.stats.s.Revalidations)
	} else if ps.haveVersion {
		f.invalidateLocked(path, ps)
	}
	ps.version = lease.Version
	ps.haveVersion = true
	ps.validUntil = now.Add(horizon)
	ps.leaseID = lease.ID
	ps.leased = true
	ps.leaseExp = now.Add(lease.TTL)
	return fresh
}

// releaseLease drops a lease server-side, best effort: an expired or
// already-broken grant answers EBADF, which is the desired end state.
func (f *FS) releaseLease(id int64) {
	if f.leaser == nil {
		return
	}
	_ = f.leaser.LeaseBreak(id)
}

// invalidateLocked drops every cached entry for path. The lease
// version survives — it is the comparison point for the next renewal.
// Caller holds f.mu.
func (f *FS) invalidateLocked(path string, ps *pathState) {
	if ps == nil {
		return
	}
	had := ps.known() || ps.dirents != nil || len(ps.pages) > 0
	ps.attr = nil
	ps.absent = false
	ps.dirents = nil
	if f.data != nil {
		for idx := range ps.pages {
			f.data.Remove(pageKey{path: path, idx: idx})
		}
	}
	ps.pages = nil
	ps.validUntil = time.Time{}
	if had {
		f.count(f.cInvalidations, &f.stats.s.Invalidations)
	}
}

// wrote records a local mutation of path: cached state is dropped and
// the horizon zeroed, so the next read renews and observes the
// server's post-write version.
func (f *FS) wrote(paths ...string) {
	f.mu.Lock()
	for _, p := range paths {
		f.forgetLocked(p)
	}
	f.mu.Unlock()
}

// forgetLocked drops everything known about path. Caller holds f.mu.
func (f *FS) forgetLocked(path string) {
	ps, ok := f.paths.Peek(path)
	if !ok {
		return
	}
	f.invalidateLocked(path, ps)
	ps.haveVersion = false
	ps.leased = false
	// The entry now holds nothing a future read could use — no data, no
	// version to compare, no lease — so indexing it is pure growth; drop
	// it.
	f.paths.Remove(path)
	f.untrack(path)
}

// wroteTree records that a directory was renamed from or onto each of
// roots: whatever is cached beneath them, present or absent, describes
// a subtree that is somewhere else now. The server moves those versions
// too (DESIGN.md §14); dropping here is what lets the renaming client
// see its own rename at once.
func (f *FS) wroteTree(roots ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var doomed []string
	for _, root := range roots {
		if !f.tracksBeneath(root) {
			continue
		}
		f.paths.Each(func(p string, _ *pathState) {
			if pathutil.Within(root, p) {
				doomed = append(doomed, p)
			}
		})
	}
	for _, p := range doomed {
		f.forgetLocked(p)
	}
}

// tracksBeneath reports whether any tracked path lies beneath root.
// Caller holds f.mu.
func (f *FS) tracksBeneath(root string) bool {
	for dir := range f.dirs {
		if pathutil.Within(root, dir) {
			return true
		}
	}
	return false
}

// cachedAttr is what the attr tier can say about path right now,
// without renewing: its attributes (have), or that it is not there
// (absent).
func (f *FS) cachedAttr(path string) (fi vfs.FileInfo, have, absent bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ps, _ := f.paths.Get(path)
	if ps == nil || !f.validLocked(ps, f.opt.Clock()) {
		return fi, false, false
	}
	if ps.attr != nil {
		return *ps.attr, true, false
	}
	return fi, false, ps.absent
}

// Stat serves attributes from the attr tier (vfs.FileSystem).
func (f *FS) Stat(path string) (vfs.FileInfo, error) {
	start := f.opt.Clock()
	defer f.drainReleases()
	f.mu.Lock()
	ps := f.state(path)
	// The trailing nil recheck is load-bearing: revalidate drops f.mu
	// across the lease RPC, and a concurrent renewal that observed a
	// changed version nils ps.attr and records the new version — this
	// renewal then compares equal and reports fresh over an entry that
	// is gone. Fall through to the miss path in that case. A negative
	// entry is served, kept and lost exactly as attributes are.
	if ps.known() && (f.validLocked(ps, start) || f.revalidate(path, ps, start)) && ps.known() {
		var fi vfs.FileInfo
		var err error
		if ps.absent {
			err = vfs.ENOENT
		} else {
			fi = *ps.attr
		}
		f.count(f.cAttrHits, &f.stats.s.AttrHits)
		f.mu.Unlock()
		f.hAttr.Observe(time.Since(start))
		return fi, err
	}
	f.count(f.cAttrMisses, &f.stats.s.AttrMisses)
	needLease := !f.validLocked(ps, f.opt.Clock())
	f.mu.Unlock()

	// Lease before the fetch, pinning the version the fill is cached
	// under: a write landing between the two RPCs then moves the
	// version and the next renewal drops the entry. Fetch-then-lease
	// would cache pre-write attrs under the post-write version and
	// revalidate them forever.
	if needLease {
		f.lease(path)
	}
	fi, err := f.inner.Stat(path)
	// Of the errors only "not there" is a fact about the path that its
	// version covers; EACCES, ENOTDIR and a lost connection are not.
	absent := err != nil && vfs.AsErrno(err) == vfs.ENOENT
	if err != nil && !absent {
		f.hAttr.Observe(time.Since(start))
		return fi, err
	}
	f.mu.Lock()
	ps = f.state(path)
	if f.validLocked(ps, f.opt.Clock()) {
		ps.attr, ps.absent = nil, absent
		if !absent {
			c := fi
			ps.attr = &c
		}
	}
	f.mu.Unlock()
	f.hAttr.Observe(time.Since(start))
	return fi, err
}

// lease acquires a fresh lease on path and opens its trust horizon,
// entering degraded mode on a pre-lease server. Called without f.mu.
func (f *FS) lease(path string) {
	defer f.drainReleases()
	f.mu.Lock()
	if f.leaser == nil || f.degraded {
		ps := f.state(path)
		// TTL-only: trust what we are about to cache for one horizon.
		ps.validUntil = f.opt.Clock().Add(f.opt.AttrTTL)
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	lease, err := f.leaser.Lease(path)
	var oldID int64
	var oldLive bool
	f.mu.Lock()
	f.count(f.cRenewals, &f.stats.s.Renewals)
	ps := f.state(path)
	if err != nil {
		if vfs.AsErrno(err) == vfs.EINVAL {
			f.degraded = true
			ps.validUntil = f.opt.Clock().Add(f.opt.AttrTTL)
		}
		f.mu.Unlock()
		return
	}
	now := f.opt.Clock()
	if ps.leased && now.Before(ps.leaseExp) {
		// A concurrent fill leased the path while we were on the wire;
		// adopt the newer grant and release the superseded one.
		oldID, oldLive = ps.leaseID, true
	}
	horizon := f.opt.AttrTTL
	if lease.TTL > 0 && lease.TTL < horizon {
		horizon = lease.TTL
	}
	if ps.haveVersion && ps.version != lease.Version {
		f.invalidateLocked(path, ps)
	}
	ps.version = lease.Version
	ps.haveVersion = true
	ps.validUntil = now.Add(horizon)
	ps.leaseID = lease.ID
	ps.leased = true
	ps.leaseExp = now.Add(lease.TTL)
	f.mu.Unlock()
	if oldLive {
		f.releaseLease(oldID)
	}
}

// ReadDir serves listings from the dirent tier (vfs.FileSystem).
func (f *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	start := f.opt.Clock()
	defer f.drainReleases()
	f.mu.Lock()
	ps := f.state(path)
	// Trailing nil recheck for the same reason as Stat: a concurrent
	// revalidation may have dropped the listing while f.mu was down
	// across the lease RPC.
	if ps.dirents != nil && (f.validLocked(ps, start) || f.revalidate(path, ps, start)) && ps.dirents != nil {
		ents := append([]vfs.DirEntry(nil), ps.dirents...)
		f.count(f.cDirentHits, &f.stats.s.DirentHits)
		f.mu.Unlock()
		f.hDirent.Observe(time.Since(start))
		return ents, nil
	}
	f.count(f.cDirentMisses, &f.stats.s.DirentMisses)
	needLease := !f.validLocked(ps, f.opt.Clock())
	f.mu.Unlock()

	// Lease-then-fetch, as in Stat: the fill must be cached under a
	// version pinned no later than the listing it describes.
	if needLease {
		f.lease(path)
	}
	ents, err := f.inner.ReadDir(path)
	if err != nil {
		f.hDirent.Observe(time.Since(start))
		return ents, err
	}
	f.mu.Lock()
	ps = f.state(path)
	if f.validLocked(ps, f.opt.Clock()) {
		ps.dirents = append([]vfs.DirEntry(nil), ents...)
	}
	f.mu.Unlock()
	f.hDirent.Observe(time.Since(start))
	return ents, nil
}

// Open opens the named file (vfs.FileSystem). Write-intent opens
// invalidate the path locally — the server is about to break our lease
// anyway — and O_SYNC handles write through.
//
// A read-only open of a path with a valid attr entry is satisfied
// locally: the server descriptor is created lazily, on the first page
// miss that actually needs it. A fully warm open/read/close cycle
// therefore costs zero RPCs — the open is a local act, as in NFSv3 —
// at the price of deferring an EACCES to the first uncached read. A
// valid negative entry answers ENOENT locally likewise.
func (f *FS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	if mutatingOpen(flags) {
		f.wrote(path, pathutil.Dir(path))
	} else if _, have, absent := f.cachedAttr(path); absent {
		return nil, vfs.ENOENT
	} else if have {
		return f.newFile(nil, path, flags, mode), nil
	}
	inner, err := f.inner.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return f.newFile(inner, path, flags, mode), nil
}

// mutatingOpen reports whether an open with these flags can change the
// file or its directory entry.
func mutatingOpen(flags int) bool {
	return flags&vfs.AccessModeMask != vfs.O_RDONLY ||
		flags&(vfs.O_CREAT|vfs.O_TRUNC) != 0
}

// newFile wraps an open descriptor; inner may be nil for a lazy
// read-only handle, materialized by ensureInner on the first miss.
func (f *FS) newFile(inner vfs.File, path string, flags int, mode uint32) *cacheFile {
	writeThrough := f.opt.WriteThrough || flags&vfs.O_SYNC != 0 ||
		flags&vfs.O_APPEND != 0
	return &cacheFile{
		fs:           f,
		inner:        inner,
		path:         path,
		flags:        flags,
		mode:         mode,
		writable:     flags&vfs.AccessModeMask != vfs.O_RDONLY,
		writeThrough: writeThrough,
	}
}

// Unlink removes the named file (vfs.FileSystem).
func (f *FS) Unlink(path string) error {
	err := f.inner.Unlink(path)
	if err == nil {
		f.wrote(path, pathutil.Dir(path))
	}
	return err
}

// Rename renames a file or directory (vfs.FileSystem). A directory
// takes its subtree along, so unless a valid attr entry says the source
// is a regular file, everything cached beneath either name goes too.
func (f *FS) Rename(oldPath, newPath string) error {
	fi, have, _ := f.cachedAttr(oldPath)
	err := f.inner.Rename(oldPath, newPath)
	if err == nil {
		f.wrote(oldPath, newPath, pathutil.Dir(oldPath), pathutil.Dir(newPath))
		if !have || fi.IsDir {
			f.wroteTree(oldPath, newPath)
		}
	}
	return err
}

// Mkdir creates a directory (vfs.FileSystem).
func (f *FS) Mkdir(path string, mode uint32) error {
	err := f.inner.Mkdir(path, mode)
	if err == nil {
		f.wrote(path, pathutil.Dir(path))
	}
	return err
}

// Rmdir removes an empty directory (vfs.FileSystem).
func (f *FS) Rmdir(path string) error {
	err := f.inner.Rmdir(path)
	if err == nil {
		f.wrote(path, pathutil.Dir(path))
	}
	return err
}

// Truncate changes the length of the named file (vfs.FileSystem).
func (f *FS) Truncate(path string, size int64) error {
	err := f.inner.Truncate(path, size)
	if err == nil {
		f.wrote(path)
	}
	return err
}

// Chmod changes permission bits (vfs.FileSystem).
func (f *FS) Chmod(path string, mode uint32) error {
	err := f.inner.Chmod(path, mode)
	if err == nil {
		f.wrote(path)
	}
	return err
}

// StatFS reports capacity, uncached (vfs.FileSystem).
func (f *FS) StatFS() (vfs.FSInfo, error) { return f.inner.StatFS() }

// Close releases every outstanding lease and closes the inner layer if
// it closes (vfs.Closer). The FS must not be used afterwards.
func (f *FS) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	ids := f.pendingRel
	f.pendingRel = nil
	f.paths.Each(func(_ string, ps *pathState) {
		if ps.leased {
			ids = append(ids, ps.leaseID)
			ps.leased = false
		}
	})
	onEvict := f.paths.OnEvict
	f.paths = NewLRU[string, *pathState](f.paths.capacity)
	f.paths.OnEvict = onEvict
	f.dirs = make(map[string]int)
	if f.data != nil {
		f.data = NewLRU[pageKey, []byte](f.opt.DataBytes)
	}
	f.mu.Unlock()
	for _, id := range ids {
		f.releaseLease(id)
	}
	if c := vfs.Capabilities(f.inner).Closer; c != nil {
		return c.Close()
	}
	return nil
}

// readPage returns one cached granule of path, using (and refreshing)
// the path's validity horizon.
func (f *FS) readPage(path string, idx int64) ([]byte, bool) {
	if f.data == nil {
		return nil, false
	}
	now := f.opt.Clock()
	f.mu.Lock()
	defer f.mu.Unlock()
	ps, ok := f.paths.Get(path)
	if !ok {
		return nil, false
	}
	if !f.validLocked(ps, now) && !f.revalidate(path, ps, now) {
		return nil, false
	}
	page, ok := f.data.Get(pageKey{path: path, idx: idx})
	return page, ok
}

// storePage caches one granule, provided the path's horizon is open.
func (f *FS) storePage(path string, idx int64, page []byte) {
	if f.data == nil {
		return
	}
	defer f.drainReleases()
	f.mu.Lock()
	defer f.mu.Unlock()
	ps := f.state(path)
	if !f.validLocked(ps, f.opt.Clock()) {
		return
	}
	if ps.pages == nil {
		ps.pages = make(map[int64]struct{})
	}
	ps.pages[idx] = struct{}{}
	f.data.Put(pageKey{path: path, idx: idx}, page, int64(len(page)))
}

// verifyFill digest-checks a whole-file fill against the inner layer's
// checksummer. data is the entire file as just read.
func (f *FS) verifyFill(path string, data []byte) error {
	cs := vfs.Capabilities(f.inner).Checksummer
	if cs == nil {
		return nil
	}
	want, err := cs.Checksum(path, vfs.AlgoCRC32C)
	if err != nil {
		// A server that cannot digest does not fail the read.
		return nil
	}
	h, err := vfs.NewHash(vfs.AlgoCRC32C)
	if err != nil {
		return nil
	}
	h.Write(data)
	got := hex.EncodeToString(h.Sum(nil))
	if got != want {
		f.mu.Lock()
		f.count(f.cVerifyFails, &f.stats.s.VerifyFails)
		f.mu.Unlock()
		return vfs.ChecksumMismatch(path, vfs.AlgoCRC32C, want, got)
	}
	return nil
}

// Capabilities forwards the inner layer's optional interfaces
// (vfs.Capabler). Fast paths that mutate are wrapped so they
// invalidate the tiers exactly like their syscall counterparts; read
// fast paths bypass the page cache by design — a whole-file stream
// does not want 64 KiB granules — and Leaser is forwarded untouched so
// a second cache above would share the same version domain.
func (f *FS) Capabilities() vfs.Capability {
	inner := vfs.Capabilities(f.inner)
	c := inner
	c.Closer = f
	if inner.FilePutter != nil {
		c.FilePutter = &cacheFilePutter{f: f, inner: inner.FilePutter}
	}
	if inner.PartPutter != nil {
		c.PartPutter = &cachePartPutter{f: f, inner: inner.PartPutter}
	}
	if inner.OpenStater != nil {
		c.OpenStater = &cacheOpenStater{f: f, inner: inner.OpenStater}
	}
	return c
}

type cacheFilePutter struct {
	f     *FS
	inner vfs.FilePutter
}

func (p *cacheFilePutter) PutFile(path string, mode uint32, size int64, r io.Reader) error {
	p.f.wrote(path, pathutil.Dir(path))
	return p.inner.PutFile(path, mode, size, r)
}

type cachePartPutter struct {
	f     *FS
	inner vfs.PartPutter
}

func (p *cachePartPutter) PutBegin(path string, mode uint32, size int64) error {
	p.f.wrote(path, pathutil.Dir(path))
	return p.inner.PutBegin(path, mode, size)
}

func (p *cachePartPutter) PutPart(path string, off, length int64, algo string, r io.Reader) (string, error) {
	p.f.wrote(path)
	return p.inner.PutPart(path, off, length, algo, r)
}

func (p *cachePartPutter) PutComplete(path string, size int64, algo, sum string) error {
	p.f.wrote(path)
	return p.inner.PutComplete(path, size, algo, sum)
}

type cacheOpenStater struct {
	f     *FS
	inner vfs.OpenStater
}

func (o *cacheOpenStater) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	if mutatingOpen(flags) {
		o.f.wrote(path, pathutil.Dir(path))
	} else if fi, have, absent := o.f.cachedAttr(path); absent {
		return nil, vfs.FileInfo{}, vfs.ENOENT
	} else if have {
		// The lazy open of FS.Open; the valid attr entry is the stat.
		return o.f.newFile(nil, path, flags, mode), fi, nil
	}
	inner, fi, err := o.inner.OpenStat(path, flags, mode)
	if err != nil {
		return nil, fi, err
	}
	return o.f.newFile(inner, path, flags, mode), fi, nil
}

// preadFull reads at off until p is full or the file ends, returning
// how many bytes landed. Both EOF conventions of vfs.File — a zero
// count and an io.EOF error — terminate cleanly.
func preadFull(f vfs.File, p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n, err := f.Pread(p[total:], off+int64(total))
		total += n
		if err == io.EOF || (err == nil && n == 0) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// cacheFile is an open file over the page cache with optional
// write-back buffering. Reads see this handle's unflushed writes;
// flushes happen on Sync, Fstat, Ftruncate, Close, on a
// non-contiguous write, and when the dirty extent reaches
// Options.FlushAt. Lazy read-only handles carry no server descriptor
// until a miss materializes one.
type cacheFile struct {
	fs           *FS
	path         string
	flags        int
	mode         uint32
	writable     bool
	writeThrough bool

	mu    sync.Mutex
	inner vfs.File // nil on a lazy handle until materialized
	dirty []byte   // pending write-back extent
	dOff  int64    // its file offset
}

var _ vfs.File = (*cacheFile)(nil)

// ensureInner materializes the server descriptor of a lazy handle.
// The open uses the original flags minus creation/truncation bits —
// those only make sense on the first open, which lazy handles never
// are (a lazy handle requires a valid attr entry, hence an existing
// file).
func (cf *cacheFile) ensureInner() (vfs.File, error) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.inner != nil {
		return cf.inner, nil
	}
	inner, err := cf.fs.inner.Open(cf.path, cf.flags&^(vfs.O_CREAT|vfs.O_EXCL|vfs.O_TRUNC), cf.mode)
	if err != nil {
		return nil, err
	}
	cf.inner = inner
	return inner, nil
}

// Pread reads through the page cache (vfs.File), overlaying this
// handle's pending write-back extent.
func (cf *cacheFile) Pread(p []byte, off int64) (int, error) {
	start := cf.fs.opt.Clock()
	n, err := cf.preadCached(p, off)
	cf.fs.hRead.Observe(time.Since(start))
	if err != nil {
		return n, err
	}
	cf.mu.Lock()
	n = cf.overlayDirty(p, off, n)
	cf.mu.Unlock()
	return n, err
}

// preadCached serves the clean view of the file: cached pages first,
// inner reads to fill.
func (cf *cacheFile) preadCached(p []byte, off int64) (int, error) {
	fs := cf.fs
	if fs.data == nil {
		//lint:ignore reslifetime ensureInner memoizes the handle on cf; cacheFile.Close releases it
		inner, err := cf.ensureInner()
		if err != nil {
			return 0, err
		}
		return inner.Pread(p, off)
	}
	pg := fs.opt.PageSize
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		idx := cur / pg
		inPage := cur % pg
		page, ok := fs.readPage(cf.path, idx)
		if !ok {
			fs.mu.Lock()
			fs.count(fs.cPageMisses, &fs.stats.s.PageMisses)
			cps, _ := fs.paths.Peek(cf.path)
			needLease := !fs.validLocked(cps, fs.opt.Clock())
			fs.mu.Unlock()
			if needLease {
				// Open the path's trust horizon before the fill, so
				// the page is cacheable the moment it lands.
				fs.lease(cf.path)
			}
			// A valid attr entry (same lease version the page will be
			// cached under) says where the file ends: the fill stops
			// there instead of asking the server for the EOF.
			want := pg
			if fi, have, _ := fs.cachedAttr(cf.path); have && !fi.IsDir {
				want = min(pg, max(fi.Size-idx*pg, 0))
			}
			page = make([]byte, want)
			if want > 0 {
				inner, err := cf.ensureInner()
				if err != nil {
					return total, err
				}
				n, err := preadFull(inner, page, idx*pg)
				if err != nil {
					return total, err
				}
				page = page[:n]
			}
			if idx == 0 && int64(len(page)) < pg && fs.opt.Verify {
				// The file fits in one page: this fill is the whole
				// file, so it can be digest-checked end to end.
				if verr := fs.verifyFill(cf.path, page); verr != nil {
					return total, verr
				}
			}
			fs.storePage(cf.path, idx, page)
		} else {
			fs.mu.Lock()
			fs.count(fs.cPageHits, &fs.stats.s.PageHits)
			fs.mu.Unlock()
		}
		if inPage >= int64(len(page)) {
			// EOF inside this page.
			break
		}
		n := copy(p[total:], page[inPage:])
		total += n
		if int64(len(page)) < pg {
			// Short page: end of file.
			break
		}
	}
	return total, nil
}

// overlayDirty patches this handle's pending extent over a clean read.
// Caller holds cf.mu. Returns the possibly extended count.
func (cf *cacheFile) overlayDirty(p []byte, off int64, n int) int {
	if len(cf.dirty) == 0 {
		return n
	}
	dEnd := cf.dOff + int64(len(cf.dirty))
	rEnd := off + int64(len(p))
	if dEnd <= off || cf.dOff >= rEnd {
		return n
	}
	lo := cf.dOff
	if lo < off {
		lo = off
	}
	hi := dEnd
	if hi > rEnd {
		hi = rEnd
	}
	copy(p[lo-off:hi-off], cf.dirty[lo-cf.dOff:hi-cf.dOff])
	// A write past the clean EOF extends the visible length; any gap
	// between the clean end and the extent reads as zeros (the page
	// buffer p arrives zeroed only at fill, so clear it explicitly).
	if int64(n) < hi-off {
		for i := off + int64(n); i < lo; i++ {
			p[i-off] = 0
		}
		n = int(hi - off)
	}
	return n
}

// Pwrite writes through or buffers for write-back (vfs.File). A
// read-only handle answers EBADF up front, as the uncached stack
// would: buffering the bytes would strand them — a lazy read-only
// handle has no writable descriptor to flush through.
func (cf *cacheFile) Pwrite(p []byte, off int64) (int, error) {
	if !cf.writable {
		return 0, vfs.EBADF
	}
	if cf.writeThrough {
		//lint:ignore reslifetime ensureInner memoizes the handle on cf; cacheFile.Close releases it
		inner, err := cf.ensureInner()
		if err != nil {
			return 0, err
		}
		n, err := inner.Pwrite(p, off)
		cf.fs.wrote(cf.path)
		return n, err
	}
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if len(cf.dirty) > 0 && off != cf.dOff+int64(len(cf.dirty)) {
		// Non-contiguous: push the pending extent first.
		if err := cf.flushLocked(); err != nil {
			return 0, err
		}
	}
	if len(cf.dirty) == 0 {
		cf.dOff = off
	}
	cf.dirty = append(cf.dirty, p...)
	if int64(len(cf.dirty)) >= cf.fs.opt.FlushAt {
		if err := cf.flushLocked(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// flushLocked pushes the pending extent to the server. Caller holds
// cf.mu. Only writable handles accumulate dirty data (Pwrite rejects
// the rest with EBADF), and writable handles are always eagerly
// opened, so cf.inner is non-nil here.
func (cf *cacheFile) flushLocked() error {
	if len(cf.dirty) == 0 {
		return nil
	}
	err := vfs.WriteAll(cf.inner, cf.dirty, cf.dOff)
	cf.dirty = cf.dirty[:0]
	cf.fs.mu.Lock()
	cf.fs.count(cf.fs.cFlushes, &cf.fs.stats.s.Flushes)
	cf.fs.mu.Unlock()
	cf.fs.wrote(cf.path)
	return err
}

// flush pushes pending write-back data.
func (cf *cacheFile) flush() error {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.flushLocked()
}

// Fstat flushes pending writes so size and mtime are truthful, then
// asks the server (vfs.File). A still-lazy handle answers from the
// attr tier: the entry is valid by the lazy-open invariant, or a
// descriptor is materialized to re-fetch.
func (cf *cacheFile) Fstat() (vfs.FileInfo, error) {
	if err := cf.flush(); err != nil {
		return vfs.FileInfo{}, err
	}
	cf.mu.Lock()
	lazy := cf.inner == nil
	cf.mu.Unlock()
	if lazy {
		if fi, have, _ := cf.fs.cachedAttr(cf.path); have {
			cf.fs.count(cf.fs.cAttrHits, &cf.fs.stats.s.AttrHits)
			return fi, nil
		}
	}
	//lint:ignore reslifetime ensureInner memoizes the handle on cf; cacheFile.Close releases it
	inner, err := cf.ensureInner()
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return inner.Fstat()
}

// Ftruncate flushes, truncates, and invalidates (vfs.File).
func (cf *cacheFile) Ftruncate(size int64) error {
	if err := cf.flush(); err != nil {
		return err
	}
	//lint:ignore reslifetime ensureInner memoizes the handle on cf; cacheFile.Close releases it
	inner, err := cf.ensureInner()
	if err != nil {
		return err
	}
	err = inner.Ftruncate(size)
	cf.fs.wrote(cf.path)
	return err
}

// Sync flushes write-back data and forwards the barrier (vfs.File). A
// lazy handle has nothing in flight to sync.
func (cf *cacheFile) Sync() error {
	if err := cf.flush(); err != nil {
		return err
	}
	cf.mu.Lock()
	inner := cf.inner
	cf.mu.Unlock()
	if inner == nil {
		return nil
	}
	return inner.Sync()
}

// Close flushes pending writes and closes the descriptor (vfs.File).
// The inner close always runs: a failed flush must not leak the
// server-side descriptor. A never-materialized lazy handle closes
// without a round trip.
func (cf *cacheFile) Close() error {
	ferr := cf.flush()
	cf.mu.Lock()
	inner := cf.inner
	cf.inner = nil
	cf.mu.Unlock()
	var cerr error
	if inner != nil {
		cerr = inner.Close()
	}
	if ferr != nil {
		return fmt.Errorf("cache: write-back flush on close: %w", ferr)
	}
	return cerr
}
