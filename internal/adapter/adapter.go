// Package adapter implements the TSS adapter of §6 — the component the
// paper realizes as Parrot, which traps an unmodified application's
// system calls and redirects them to storage abstractions.
//
// Substitution note (documented in DESIGN.md): Parrot interposes via
// the ptrace debugging interface; a Go library cannot usefully ptrace
// itself, so this adapter interposes at the library boundary instead —
// it *is* a vfs.FileSystem whose namespace is assembled from mounted
// abstractions. Everything architectural survives the substitution:
//
//   - the namespace model: each abstraction appears under a top-level
//     scheme entry (/chirp/<host>/..., /nfs/<host>/...) plus an
//     explicit mountlist mapping logical names to abstractions;
//   - the recovery protocol: on a lost connection the adapter
//     reconnects with exponential backoff, re-opens files, and checks
//     the inode number — a changed inode yields ESTALE, as in NFS;
//   - the synchronous-write switch: O_SYNC transparently appended to
//     every open;
//   - the cost model: an optional trap emulator charges every call the
//     price of the context-switch pair and extra data copy that ptrace
//     interposition pays (Figure 3).
package adapter

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tss/internal/obs"
	"tss/internal/pathutil"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// Config configures an adapter.
type Config struct {
	// Sync appends O_SYNC to all opens (§6's command-line switch).
	Sync bool
	// MaxRetries bounds reconnection attempts per operation (§6: users
	// may place an upper limit on retries). Default 5.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per attempt
	// (§6: "exponentially increasing delay"). Default 10 ms.
	RetryBase time.Duration
	// RetryTokens > 0 installs a token-bucket retry budget shared by
	// every operation through this adapter (DESIGN.md §15): the bucket
	// starts with this many tokens, each retry spends one, and each
	// success earns a fraction back. When the bucket runs dry, retrying
	// stops until successes refill it — which is what caps a retry storm
	// at a bounded amplification of offered load instead of a multiple
	// of it. 0 disables the budget (attempts alone bound retries).
	RetryTokens float64
	// Resolve maps a default-namespace entry (/<scheme>/<host>/...) to
	// a filesystem; nil disables the default namespace.
	Resolve func(scheme, host string) (vfs.FileSystem, error)
	// Trap, when non-nil, charges each operation the interposition
	// cost (see TrapEmulator).
	Trap *TrapEmulator
	// Sleep replaces time.Sleep in backoff loops (tests). Nil means
	// time.Sleep.
	Sleep func(time.Duration)
	// Metrics, when non-nil, holds the Stats counters, so per-process
	// syscall counts appear on /metrics; nil keeps them private.
	Metrics *obs.Registry
}

// Mount binds a logical path prefix to an abstraction.
type Mount struct {
	Prefix string
	FS     vfs.FileSystem
}

// Stats counts adapter activity; each field is a handle to a registry
// counter (DESIGN.md §8). The paper's users distrust transparent layers
// (§3) — counters make this one observable.
type Stats struct {
	// Ops counts operations entering the adapter.
	Ops *obs.Counter
	// Reconnects counts successful reconnections during recovery.
	Reconnects *obs.Counter
	// Stale counts operations that ended in ESTALE.
	Stale *obs.Counter
	// GaveUp counts operations that exhausted their retry budget.
	GaveUp *obs.Counter
	// Retries counts individual retry attempts across all operations.
	Retries *obs.Counter
	// BudgetExhausted counts retries refused because the token-bucket
	// retry budget (Config.RetryTokens) was empty.
	BudgetExhausted *obs.Counter
}

// Adapter assembles abstractions into one namespace and transparently
// recovers from server disconnections. It implements vfs.FileSystem.
type Adapter struct {
	cfg Config

	// budget is the shared token-bucket retry budget, nil (unlimited)
	// unless Config.RetryTokens is set.
	budget *resilient.RetryBudget
	// policy is §6's recovery as configured — "exponentially increasing
	// delay", bounded by attempts and tokens — with the Stats counters
	// on its hooks. Every verb runs under policy.Run.
	policy resilient.Policy

	// Stats exposes operation and recovery counters.
	Stats Stats

	mu       sync.Mutex
	mounts   []Mount // sorted by descending prefix length
	resolved map[string]vfs.FileSystem
}

var _ vfs.FileSystem = (*Adapter)(nil)

// New returns an adapter with the given configuration.
func New(cfg Config) *Adapter {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	reg := obs.OrNew(cfg.Metrics)
	a := &Adapter{cfg: cfg, resolved: make(map[string]vfs.FileSystem), Stats: Stats{
		Ops:             reg.Counter("adapter.ops"),
		Reconnects:      reg.Counter("adapter.reconnects"),
		Stale:           reg.Counter("adapter.stale"),
		GaveUp:          reg.Counter("adapter.gave_up"),
		Retries:         reg.Counter("adapter.retries"),
		BudgetExhausted: reg.Counter("resilient.budget_exhausted"),
	}}
	if cfg.RetryTokens > 0 {
		a.budget = resilient.NewRetryBudget(cfg.RetryTokens, 0)
		a.budget.OnExhausted = a.Stats.BudgetExhausted.Inc
	}
	a.policy = resilient.Policy{
		Attempts:    cfg.MaxRetries,
		Base:        cfg.RetryBase,
		RetryBudget: a.budget,
		Sleep:       cfg.Sleep,
		OnRetry:     func(int, error) { a.Stats.Retries.Inc() },
		OnReconnect: a.Stats.Reconnects.Inc,
		OnGiveUp:    a.Stats.GaveUp.Inc,
	}
	return a
}

// RetryBudgetTokens reports the tokens remaining in the shared retry
// budget, or -1 when no budget is configured.
func (a *Adapter) RetryBudgetTokens() float64 {
	if a.budget == nil {
		return -1
	}
	return a.budget.Tokens()
}

// MountFS binds prefix to fs; longer prefixes shadow shorter ones.
func (a *Adapter) MountFS(prefix string, fs vfs.FileSystem) error {
	n, err := pathutil.Norm(prefix)
	if err != nil {
		return vfs.EINVAL
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.mounts {
		if m.Prefix == n {
			return vfs.EEXIST
		}
	}
	a.mounts = append(a.mounts, Mount{Prefix: n, FS: fs})
	sort.Slice(a.mounts, func(i, j int) bool {
		return len(a.mounts[i].Prefix) > len(a.mounts[j].Prefix)
	})
	return nil
}

// Unmount removes the mount at prefix.
func (a *Adapter) Unmount(prefix string) error {
	n, err := pathutil.Norm(prefix)
	if err != nil {
		return vfs.EINVAL
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, m := range a.mounts {
		if m.Prefix == n {
			a.mounts = append(a.mounts[:i], a.mounts[i+1:]...)
			return nil
		}
	}
	return vfs.ENOENT
}

// Mounts returns the current mount table.
func (a *Adapter) Mounts() []Mount {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Mount, len(a.mounts))
	copy(out, a.mounts)
	return out
}

// ParseMountlist parses the §6 mountlist format: one "logical target"
// pair per line, '#' comments.
func ParseMountlist(text string) ([][2]string, error) {
	var out [][2]string
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("adapter: mountlist line %d: want \"logical target\"", ln+1)
		}
		out = append(out, [2]string{f[0], f[1]})
	}
	return out, nil
}

// ApplyMountlist resolves each target through the adapter's namespace
// and mounts it at the logical name, creating the private namespace of
// §6 (e.g. "/data -> /chirp/archive.cse.nd.edu/data").
func (a *Adapter) ApplyMountlist(text string) error {
	pairs, err := ParseMountlist(text)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		fs, rest, err := a.resolve(p[1])
		if err != nil {
			return fmt.Errorf("adapter: mountlist target %q: %w", p[1], err)
		}
		view, err := vfs.Subtree(fs, rest)
		if err != nil {
			return err
		}
		if err := a.MountFS(p[0], view); err != nil {
			return fmt.Errorf("adapter: mounting %q: %w", p[0], err)
		}
	}
	return nil
}

// resolve maps a logical path to (filesystem, remaining path). Mounts
// win over the default /<scheme>/<host>/ namespace.
func (a *Adapter) resolve(path string) (vfs.FileSystem, string, error) {
	n, err := pathutil.Norm(path)
	if err != nil {
		return nil, "", vfs.EINVAL
	}
	a.mu.Lock()
	for _, m := range a.mounts {
		if rest, ok := pathutil.Rebase(m.Prefix, n); ok {
			a.mu.Unlock()
			return m.FS, rest, nil
		}
	}
	a.mu.Unlock()

	if a.cfg.Resolve != nil {
		comps := pathutil.Split(n)
		if len(comps) >= 2 {
			scheme, host := comps[0], comps[1]
			key := scheme + "/" + host
			a.mu.Lock()
			fs, ok := a.resolved[key]
			a.mu.Unlock()
			if !ok {
				fs, err = a.cfg.Resolve(scheme, host)
				if err != nil {
					return nil, "", err
				}
				a.mu.Lock()
				a.resolved[key] = fs
				a.mu.Unlock()
			}
			return fs, pathutil.Join(comps[2:]...), nil
		}
	}
	return nil, "", vfs.ENOENT
}

// trap charges the interposition overhead for one call moving n bytes,
// and counts the operation.
func (a *Adapter) trap(n int) {
	a.Stats.Ops.Inc()
	if a.cfg.Trap != nil {
		a.cfg.Trap.Trap(n)
	}
}

// retry runs a path operation under the §6 recovery protocol: backoff,
// reconnect, retry (resilient.Policy.Run).
func (a *Adapter) retry(fs vfs.FileSystem, op func() error) error {
	return a.policy.Run(fs, op, nil)
}

// Open opens a file anywhere in the assembled namespace. The returned
// file transparently survives server disconnections; if the underlying
// file was replaced while disconnected, operations fail with ESTALE
// (§6's stale file handle semantics).
func (a *Adapter) Open(path string, flags int, mode uint32) (vfs.File, error) {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		return nil, err
	}
	if a.cfg.Sync {
		flags |= vfs.O_SYNC
	}
	var f vfs.File
	var inode uint64
	opener := vfs.Capabilities(fs).OpenStater
	hasOpenStat := opener != nil
	err = a.retry(fs, func() error {
		var e error
		if hasOpenStat {
			var fi vfs.FileInfo
			f, fi, e = opener.OpenStat(rest, flags, mode)
			inode = fi.Inode
		} else {
			f, e = fs.Open(rest, flags, mode)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	af := &adapterFile{a: a, fs: fs, rest: rest, flags: flags, mode: mode, f: f, inode: inode}
	if !hasOpenStat {
		if fi, err := f.Fstat(); err == nil {
			af.inode = fi.Inode
		}
	}
	return af, nil
}

// isNamespacePoint reports whether the normalized path lies strictly
// above some mount: such paths exist synthetically in the adapter's
// namespace, like the automount directories of §6.
func (a *Adapter) isNamespacePoint(n string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.mounts {
		if n != m.Prefix && pathutil.Within(n, m.Prefix) {
			return true
		}
	}
	return false
}

// Stat resolves and stats. Namespace points above the mounts stat as
// synthetic directories.
func (a *Adapter) Stat(path string) (vfs.FileInfo, error) {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		if n, nerr := pathutil.Norm(path); nerr == nil && a.isNamespacePoint(n) {
			return vfs.FileInfo{Name: pathutil.Base(n), Mode: 0o555, IsDir: true}, nil
		}
		return vfs.FileInfo{}, err
	}
	var fi vfs.FileInfo
	err = a.retry(fs, func() error {
		var e error
		fi, e = fs.Stat(rest)
		return e
	})
	return fi, err
}

// Unlink removes a file.
func (a *Adapter) Unlink(path string) error {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		return err
	}
	return a.retry(fs, func() error { return fs.Unlink(rest) })
}

// Rename renames within a single abstraction; crossing mounts is
// rejected (as with Unix EXDEV semantics, simplified to EINVAL).
func (a *Adapter) Rename(oldPath, newPath string) error {
	a.trap(0)
	ofs, orest, err := a.resolve(oldPath)
	if err != nil {
		return err
	}
	nfs, nrest, err := a.resolve(newPath)
	if err != nil {
		return err
	}
	if ofs != nfs {
		return vfs.EINVAL
	}
	return a.retry(ofs, func() error { return ofs.Rename(orest, nrest) })
}

// Mkdir creates a directory. Namespace points above the mounts already
// exist synthetically, so creating them reports EEXIST (which lets
// MkdirAll walk through them).
func (a *Adapter) Mkdir(path string, mode uint32) error {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		if n, nerr := pathutil.Norm(path); nerr == nil && a.isNamespacePoint(n) {
			return vfs.EEXIST
		}
		return err
	}
	return a.retry(fs, func() error { return fs.Mkdir(rest, mode) })
}

// Rmdir removes a directory. Namespace points cannot be removed.
func (a *Adapter) Rmdir(path string) error {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		if n, nerr := pathutil.Norm(path); nerr == nil && a.isNamespacePoint(n) {
			return vfs.EBUSY
		}
		return err
	}
	return a.retry(fs, func() error { return fs.Rmdir(rest) })
}

// ReadDir lists a directory. Listing a point above all mounts shows
// the mounted names, so the namespace is explorable from "/".
func (a *Adapter) ReadDir(path string) ([]vfs.DirEntry, error) {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err == nil {
		var ents []vfs.DirEntry
		err = a.retry(fs, func() error {
			var e error
			ents, e = fs.ReadDir(rest)
			return e
		})
		return ents, err
	}
	// Synthesize listings for namespace points above the mounts.
	n, nerr := pathutil.Norm(path)
	if nerr != nil {
		return nil, vfs.EINVAL
	}
	seen := map[string]bool{}
	var ents []vfs.DirEntry
	for _, m := range a.Mounts() {
		if rest, ok := pathutil.Rebase(n, m.Prefix); ok && rest != "/" {
			name := pathutil.Split(rest)[0]
			if !seen[name] {
				seen[name] = true
				ents = append(ents, vfs.DirEntry{Name: name, IsDir: true})
			}
		}
	}
	if len(ents) == 0 {
		return nil, err
	}
	return ents, nil
}

// Truncate truncates a file.
func (a *Adapter) Truncate(path string, size int64) error {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		return err
	}
	return a.retry(fs, func() error { return fs.Truncate(rest, size) })
}

// Chmod changes permissions.
func (a *Adapter) Chmod(path string, mode uint32) error {
	a.trap(0)
	fs, rest, err := a.resolve(path)
	if err != nil {
		return err
	}
	return a.retry(fs, func() error { return fs.Chmod(rest, mode) })
}

// StatFS reports capacity of the filesystem behind "/" or the first
// mount.
func (a *Adapter) StatFS() (vfs.FSInfo, error) {
	a.trap(0)
	mounts := a.Mounts()
	if len(mounts) == 0 {
		return vfs.FSInfo{}, vfs.ENOENT
	}
	return mounts[len(mounts)-1].FS.StatFS()
}

// adapterFile wraps an open file with the §6 recovery protocol.
type adapterFile struct {
	a     *Adapter
	fs    vfs.FileSystem
	rest  string
	flags int
	mode  uint32

	mu    sync.Mutex
	f     vfs.File
	inode uint64
	stale bool
}

// recoverFile re-opens the file after a reconnect and verifies, via
// the inode number, that it is the same file as before. A different
// inode means the file was renamed or deleted while disconnected: the
// handle becomes permanently stale (ESTALE), as in NFS.
func (af *adapterFile) recoverFile() error {
	// Never O_TRUNC or O_CREAT on re-open: recovery must not mutate.
	flags := af.flags &^ (vfs.O_TRUNC | vfs.O_CREAT | vfs.O_EXCL)
	f, err := af.fs.Open(af.rest, flags, af.mode)
	if err != nil {
		if vfs.AsErrno(err) == vfs.ENOENT {
			af.stale = true
			return vfs.ESTALE
		}
		return err
	}
	fi, err := f.Fstat()
	if err != nil {
		f.Close()
		return err
	}
	if af.inode != 0 && fi.Inode != af.inode {
		f.Close()
		af.stale = true
		return vfs.ESTALE
	}
	af.f = f
	return nil
}

// reopen is the handle half of recovery: after the reconnect, re-open
// and re-verify. A stale handle is unrecoverable and ends the protocol.
func (af *adapterFile) reopen() error {
	err := af.recoverFile()
	if err == vfs.ESTALE {
		af.a.Stats.Stale.Inc()
		return resilient.Permanent(err)
	}
	return err
}

// do runs one file operation under the recovery protocol.
func (af *adapterFile) do(op func(f vfs.File) error) error {
	af.mu.Lock()
	defer af.mu.Unlock()
	if af.stale {
		return vfs.ESTALE
	}
	return af.a.policy.Run(af.fs, func() error { return op(af.f) }, af.reopen)
}

func (af *adapterFile) Pread(p []byte, off int64) (int, error) {
	af.a.trap(len(p))
	var n int
	err := af.do(func(f vfs.File) error {
		var e error
		n, e = f.Pread(p, off)
		return e
	})
	return n, err
}

func (af *adapterFile) Pwrite(p []byte, off int64) (int, error) {
	af.a.trap(len(p))
	var n int
	err := af.do(func(f vfs.File) error {
		var e error
		n, e = f.Pwrite(p, off)
		return e
	})
	return n, err
}

func (af *adapterFile) Fstat() (vfs.FileInfo, error) {
	af.a.trap(0)
	var fi vfs.FileInfo
	err := af.do(func(f vfs.File) error {
		var e error
		fi, e = f.Fstat()
		return e
	})
	return fi, err
}

func (af *adapterFile) Ftruncate(size int64) error {
	af.a.trap(0)
	return af.do(func(f vfs.File) error { return f.Ftruncate(size) })
}

func (af *adapterFile) Sync() error {
	af.a.trap(0)
	return af.do(func(f vfs.File) error { return f.Sync() })
}

func (af *adapterFile) Close() error {
	af.a.trap(0)
	af.mu.Lock()
	defer af.mu.Unlock()
	if af.stale || af.f == nil {
		return nil
	}
	err := af.f.Close()
	af.f = nil
	af.stale = true
	return err
}
