package abstraction

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tss/internal/obs"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// MirrorFS transparently replicates a filesystem across N underlying
// filesystems — one of the §10 extensions ("One may imagine
// filesystems that transparently ... replicate ... data"), built as
// one more recursive abstraction: each replica can be a Chirp client,
// a DSFS, a local directory, or another mirror.
//
// Semantics, kept as simple as the paper's direct-access philosophy
// demands: modifying operations are applied to every *reachable*
// replica and succeed if they succeed everywhere reachable (with at
// least one reachable); reads are served by the healthiest replica. A
// replica that was down during writes is stale until re-synchronized —
// continuous repair is the job of GEMS-style auditing, not of the
// mirror itself.
//
// Health is tracked with one circuit breaker per replica: after enough
// consecutive transport failures the replica is demoted and skipped,
// so reads stop paying a dead replica's connect timeout on every
// operation. Demoted replicas are re-admitted by background half-open
// probes on a jittered exponential schedule; the probes piggyback on
// regular traffic (TryProbe) but run in their own goroutines so no
// user operation ever waits on a probe. With Hedge > 0, a read that
// has not answered within the hedge delay is raced against the next
// healthy replica.
type MirrorFS struct {
	replicas []vfs.FileSystem
	breakers []*resilient.Breaker
	hedge    time.Duration
	quorum   int
	probe    func(fs vfs.FileSystem) error

	// Verify-on-read configuration (see integrity.go).
	verifyReads bool
	sumAlgo     string
	// strikes counts, per replica, the times its payload was voted down
	// by a sibling majority. It arbitrates one-against-one digest
	// disagreements: a replica with a record of serving bad bytes does
	// not get to veto a clean-history sibling (integrity.go). A
	// successful scrub repair resets the repaired replica's count.
	strikes []atomic.Int64

	// pushbackNanos holds, per replica, the UnixNano until which the
	// replica is considered to be shedding load (it answered EAGAIN,
	// DESIGN.md §15). A pushing-back replica is healthy — its breaker is
	// left alone — but order() serves it last and hedging skips it, so
	// the mirror stops piling retries onto a server that asked for room.
	pushbackNanos []atomic.Int64

	// Registry counters shadowing Stats (nil without a registry): the
	// same numbers, visible on /metrics next to the latency histograms.
	mTrips          *obs.Counter
	mProbes         *obs.Counter
	mReadmits       *obs.Counter
	mHedges         *obs.Counter
	mHedgeWins      *obs.Counter
	mHedgeLosses    *obs.Counter
	mFastFails      *obs.Counter
	mPushbacks      *obs.Counter
	mIntegrityFails *obs.Counter
	mScrubFiles     *obs.Counter
	mScrubDivergent *obs.Counter
	mScrubRepaired  *obs.Counter

	// Stats exposes health and hedging counters.
	Stats MirrorStats
}

// MirrorStats counts mirror health activity; all fields are safe to
// read concurrently. The paper's users distrust transparent layers
// (§3) — counters make this one observable.
type MirrorStats struct {
	// Trips counts breaker Closed→Open transitions across replicas.
	Trips atomic.Int64
	// Probes counts half-open probes launched.
	Probes atomic.Int64
	// Readmits counts replicas re-admitted by a successful probe.
	Readmits atomic.Int64
	// Hedges counts hedged requests launched.
	Hedges atomic.Int64
	// HedgeWins counts reads answered first by the hedge.
	HedgeWins atomic.Int64
	// HedgeLosses counts hedged requests that lost the race (their
	// result was reaped after another replica answered first). Together
	// with HedgeWins this tells whether the hedge delay is earning its
	// extra load.
	HedgeLosses atomic.Int64
	// FastFails counts operations refused immediately because every
	// replica's breaker was open.
	FastFails atomic.Int64
	// Pushbacks counts EAGAIN answers from replicas — overload shedding
	// noted in the pushback window, deliberately not charged to the
	// breakers (a busy server is not a dead server).
	Pushbacks atomic.Int64
	// IntegrityFailovers counts verified reads whose payload failed
	// cross-replica digest confirmation and were re-served from a
	// sibling replica (integrity.go).
	IntegrityFailovers atomic.Int64
	// ScrubFiles, ScrubDivergent, and ScrubRepaired count scrub
	// activity: files examined, files whose replicas disagreed, and
	// replica copies rewritten (scrub.go).
	ScrubFiles     atomic.Int64
	ScrubDivergent atomic.Int64
	ScrubRepaired  atomic.Int64
}

// MirrorOptions configures the mirror's health layer. The zero value
// gives breaker defaults and no hedging.
type MirrorOptions struct {
	// Breaker configures the per-replica circuit breakers.
	Breaker resilient.BreakerConfig
	// Hedge, when > 0, launches the same read on the next healthy
	// replica if the first has not answered within this delay.
	Hedge time.Duration
	// Probe is the half-open health check run against a demoted
	// replica; nil means Stat of the root.
	Probe func(fs vfs.FileSystem) error
	// WriteQuorum is the minimum number of replicas a modifying
	// operation must succeed on. Zero keeps the historical "everywhere
	// reachable, at least one" semantics. Setting it to a majority
	// (n/2+1) makes exclusive-create mutual exclusion hold across
	// network partitions: two disjoint replica subsets cannot both
	// reach a majority, and any two majorities intersect in a replica
	// that answers the loser's O_EXCL with EEXIST. A failed exclusive
	// create undoes its partial creates best-effort; other partially
	// applied operations are left for scrub to reconcile.
	WriteQuorum int
	// VerifyReads cross-checks every whole-file read against a sibling
	// replica's digest before delivering it (integrity.go): a replica
	// serving silently corrupted bytes is demoted and the read fails
	// over, so corruption never reaches the caller while a healthy
	// copy exists.
	VerifyReads bool
	// ChecksumAlgo selects the digest for verification and scrubbing
	// (default vfs.DefaultAlgo).
	ChecksumAlgo string
	// Metrics, when non-nil, receives per-replica breaker state gauges
	// ("<layer>.replica<i>.breaker_state": 0 closed, 1 open, 2
	// half-open) and health counters under the layer prefix.
	Metrics *obs.Registry
	// Layer tags this mirror's metrics (default "mirror").
	Layer string
}

var _ vfs.FileSystem = (*MirrorFS)(nil)

// NewMirror mirrors across the given filesystems with default options.
func NewMirror(replicas ...vfs.FileSystem) (*MirrorFS, error) {
	return NewMirrorOptions(MirrorOptions{}, replicas...)
}

// NewMirrorOptions mirrors across the given filesystems with explicit
// health options.
func NewMirrorOptions(opts MirrorOptions, replicas ...vfs.FileSystem) (*MirrorFS, error) {
	if len(replicas) == 0 {
		return nil, vfs.EINVAL
	}
	if opts.WriteQuorum < 0 || opts.WriteQuorum > len(replicas) {
		return nil, vfs.EINVAL
	}
	probe := opts.Probe
	if probe == nil {
		// Probes only run against demoted replicas, whose transport is
		// presumed dead — clients like chirp's never redial on their
		// own (recovery belongs to the caller, §6), so re-establish
		// the connection before asking for proof of life.
		probe = func(fs vfs.FileSystem) error {
			if rc := vfs.Capabilities(fs).Reconnector; rc != nil {
				if err := rc.Reconnect(); err != nil {
					return err
				}
			}
			_, err := fs.Stat("/")
			return err
		}
	}
	algo := opts.ChecksumAlgo
	if algo == "" {
		algo = vfs.DefaultAlgo
	}
	m := &MirrorFS{
		replicas:    replicas,
		breakers:    make([]*resilient.Breaker, len(replicas)),
		hedge:       opts.Hedge,
		quorum:      opts.WriteQuorum,
		probe:       probe,
		verifyReads: opts.VerifyReads,
		sumAlgo:     algo,
		strikes:     make([]atomic.Int64, len(replicas)),
	}
	m.pushbackNanos = make([]atomic.Int64, len(replicas))
	layer := opts.Layer
	if layer == "" {
		layer = "mirror"
	}
	if reg := opts.Metrics; reg != nil {
		m.mTrips = reg.Counter(layer + ".trips")
		m.mProbes = reg.Counter(layer + ".probes")
		m.mReadmits = reg.Counter(layer + ".readmits")
		m.mHedges = reg.Counter(layer + ".hedges")
		m.mHedgeWins = reg.Counter(layer + ".hedge_wins")
		m.mHedgeLosses = reg.Counter(layer + ".hedge_losses")
		m.mFastFails = reg.Counter(layer + ".fast_fails")
		m.mPushbacks = reg.Counter(layer + ".pushbacks")
		m.mIntegrityFails = reg.Counter(layer + ".integrity_failover")
		m.mScrubFiles = reg.Counter(layer + ".scrub_files")
		m.mScrubDivergent = reg.Counter(layer + ".scrub_divergent")
		m.mScrubRepaired = reg.Counter(layer + ".scrub_repaired")
	}
	for i := range replicas {
		cfg := opts.Breaker
		if reg := opts.Metrics; reg != nil {
			// Chain a state gauge onto any observer the caller installed:
			// each transition lands the new state in
			// "<layer>.replica<i>.breaker_state".
			gauge := reg.Gauge(fmt.Sprintf("%s.replica%d.breaker_state", layer, i))
			user := cfg.OnStateChange
			cfg.OnStateChange = func(from, to resilient.State) {
				gauge.Set(int64(to))
				if user != nil {
					user(from, to)
				}
			}
		}
		m.breakers[i] = resilient.NewBreaker(cfg)
	}
	return m, nil
}

// Health returns a breaker snapshot per replica, in replica order.
func (m *MirrorFS) Health() []resilient.BreakerStats {
	out := make([]resilient.BreakerStats, len(m.breakers))
	for i, b := range m.breakers {
		out[i] = b.Stats()
	}
	return out
}

// unreachable reports whether err means the replica (not the request)
// failed, so the operation should carry on with the other replicas.
// ESTALE counts too: a replica that restarted and invalidated its
// handles cannot serve this operation, even though its server answers.
func unreachable(err error) bool {
	return resilient.TransportError(err) || vfs.AsErrno(err) == vfs.ESTALE
}

// mirrorPushbackWindow is how long one EAGAIN deprioritizes a replica.
// Long enough that a retry after full-jitter backoff lands on a
// sibling; short enough that a recovered server is back in rotation
// within a breath.
const mirrorPushbackWindow = time.Second

// record reports an operation outcome against replica i's breaker.
// EAGAIN is load shedding, not failure: the replica answered, it is
// just busy. It opens the pushback window — order() serves the replica
// last and hedging skips it while it lasts — and leaves the breaker's
// failure accounting alone, so pushback never trips a breaker.
func (m *MirrorFS) record(i int, err error) {
	if resilient.Pushback(err) {
		m.pushbackNanos[i].Store(time.Now().Add(mirrorPushbackWindow).UnixNano())
		m.Stats.Pushbacks.Add(1)
		m.mPushbacks.Inc()
		return
	}
	if m.breakers[i].Record(err) {
		m.Stats.Trips.Add(1)
		m.mTrips.Inc()
	}
}

// pushingBack reports whether replica i is inside its pushback window.
func (m *MirrorFS) pushingBack(i int) bool {
	return time.Now().UnixNano() < m.pushbackNanos[i].Load()
}

// order partitions replica indices into those ready for traffic
// (breaker closed) and those demoted. Ready replicas inside a pushback
// window are soft-deprioritized: still eligible — a busy server beats
// no server — but moved behind their unburdened siblings, index order
// preserved within each class.
func (m *MirrorFS) order() (ready, demoted []int) {
	var busy []int
	for i, b := range m.breakers {
		switch {
		case !b.Ready():
			demoted = append(demoted, i)
		case m.pushingBack(i):
			busy = append(busy, i)
		default:
			ready = append(ready, i)
		}
	}
	return append(ready, busy...), demoted
}

// maybeProbe launches a background half-open probe of replica i if its
// breaker grants one. Regular traffic never waits on the probe; the
// goroutine reports back to the breaker when the backend answers (or
// its timeout expires).
func (m *MirrorFS) maybeProbe(i int) {
	if !m.breakers[i].TryProbe() {
		return
	}
	m.Stats.Probes.Add(1)
	m.mProbes.Inc()
	go func() {
		err := m.probe(m.replicas[i])
		if m.breakers[i].RecordProbe(err) {
			m.Stats.Readmits.Add(1)
			m.mReadmits.Inc()
		}
	}()
}

// mirrorRead runs op against the healthiest replica, failing over in
// health order on transport errors and optionally hedging. It returns
// the result and the replica index that produced it. discard releases
// the result of a losing hedge (a File that must be closed); nil when
// the result holds no resources. It is generic so that callers get
// typed results back — no `v.(vfs.File)` assertions that the capprobe
// discipline (and plain type safety) frowns on.
func mirrorRead[T any](m *MirrorFS, op func(fs vfs.FileSystem) (T, error), discard func(v T)) (T, int, error) {
	var zero T
	ready, demoted := m.order()
	for _, i := range demoted {
		m.maybeProbe(i)
	}
	if len(ready) == 0 {
		m.Stats.FastFails.Add(1)
		m.mFastFails.Inc()
		return zero, -1, vfs.ENOTCONN
	}
	if m.hedge > 0 && len(ready) > 1 {
		return hedgedRead(m, ready, op, discard)
	}
	var lastErr error = vfs.ENOTCONN
	for _, i := range ready {
		v, err := op(m.replicas[i])
		m.record(i, err)
		if err == nil || !unreachable(err) {
			return v, i, err
		}
		lastErr = err
	}
	return zero, -1, lastErr
}

// hedgedRead races op across the ready replicas: the first starts
// immediately, the next is hedged in after the hedge delay, and any
// transport failure immediately starts the next candidate. The first
// answer wins; straggler results are discarded in the background.
func hedgedRead[T any](m *MirrorFS, ready []int, op func(fs vfs.FileSystem) (T, error), discard func(v T)) (T, int, error) {
	var zero T
	type result struct {
		idx    int
		hedged bool
		v      T
		err    error
	}
	ch := make(chan result, len(ready))
	launch := func(pos int, hedged bool) {
		i := ready[pos]
		go func() {
			v, err := op(m.replicas[i])
			m.record(i, err)
			ch <- result{idx: i, hedged: hedged, v: v, err: err}
		}()
	}
	launched, pending := 1, 1
	launch(0, false)
	timer := time.NewTimer(m.hedge)
	defer timer.Stop()
	// reap drains straggler results in the background, releasing any
	// resources they carry and counting hedges that lost the race.
	reap := func(n int) {
		if n == 0 {
			return
		}
		go func() {
			for j := 0; j < n; j++ {
				r := <-ch
				if r.hedged {
					m.Stats.HedgeLosses.Add(1)
					m.mHedgeLosses.Inc()
				}
				if r.err == nil && discard != nil {
					discard(r.v)
				}
			}
		}()
	}
	var lastErr error = vfs.ENOTCONN
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil || !unreachable(r.err) {
				if r.hedged && r.err == nil {
					m.Stats.HedgeWins.Add(1)
					m.mHedgeWins.Inc()
				}
				reap(pending)
				return r.v, r.idx, r.err
			}
			lastErr = r.err
			if launched < len(ready) {
				launch(launched, false) // failover, not a hedge
				launched++
				pending++
			}
		case <-timer.C:
			// A hedge is speculative extra load; never aim it at a
			// replica that is already shedding (failover on a real error
			// still may, below: a busy server beats no server).
			if launched < len(ready) && !m.pushingBack(ready[launched]) {
				m.Stats.Hedges.Add(1)
				m.mHedges.Inc()
				launch(launched, true)
				launched++
				pending++
			}
		}
	}
	return zero, -1, lastErr
}

// applyAll runs op on every ready replica. Unreachable replicas are
// skipped (and charged to their breakers); the first *semantic* error
// (EEXIST, EACCES, ...) is returned; if fewer replicas than the write
// quorum were reachable the last transport error is returned. With no
// quorum configured, one reachable replica suffices.
func (m *MirrorFS) applyAll(op func(i int, fs vfs.FileSystem) error) error {
	need := m.quorum
	if need < 1 {
		need = 1
	}
	ready, demoted := m.order()
	for _, i := range demoted {
		m.maybeProbe(i)
	}
	if len(ready) < need {
		m.Stats.FastFails.Add(1)
		m.mFastFails.Inc()
		return vfs.ENOTCONN
	}
	reached := 0
	var transportErr error
	for _, i := range ready {
		err := op(i, m.replicas[i])
		m.record(i, err)
		switch {
		case err == nil:
			reached++
		case unreachable(err):
			transportErr = err
		default:
			return err
		}
	}
	if reached < need {
		if transportErr == nil {
			transportErr = vfs.ENOTCONN
		}
		return transportErr
	}
	return nil
}

// Open opens the file on every reachable replica for writing, or on
// the healthiest reachable replica for read-only access. Read-only
// files transparently fail over to another replica when theirs dies
// mid-read.
func (m *MirrorFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	f, _, err := m.open(path, flags, mode, false)
	return f, err
}

// OpenStat opens like Open and reports the attributes Fstat on the
// returned file would: those of the replica that serves its reads,
// taken from that replica's open reply where it gives one
// (vfs.OpenStater). The other replicas of a writable file are opened
// plainly.
func (m *MirrorFS) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	return m.open(path, flags, mode, true)
}

var _ vfs.OpenStater = (*MirrorFS)(nil)

func (m *MirrorFS) open(path string, flags int, mode uint32, stat bool) (vfs.File, vfs.FileInfo, error) {
	if flags&vfs.AccessModeMask == vfs.O_RDONLY && flags&(vfs.O_CREAT|vfs.O_TRUNC) == 0 {
		type opened struct {
			f  vfs.File
			fi vfs.FileInfo
		}
		o, idx, err := mirrorRead(m, func(fs vfs.FileSystem) (opened, error) {
			f, fi, err := openOn(fs, path, flags, mode, stat)
			return opened{f, fi}, err
		}, func(o opened) { o.f.Close() })
		if err != nil {
			return nil, vfs.FileInfo{}, err
		}
		return &mirrorFile{
			m:        m,
			files:    []vfs.File{o.f},
			idxs:     []int{idx},
			readOnly: true,
			path:     path,
			flags:    flags,
			mode:     mode,
		}, o.fi, nil
	}
	var files []vfs.File
	var idxs []int
	var fi vfs.FileInfo
	err := m.applyAll(func(i int, fs vfs.FileSystem) error {
		// files[0] is the one Fstat asks, so it is the one to stat.
		f, st, e := openOn(fs, path, flags, mode, stat && len(files) == 0)
		if e == nil {
			if len(files) == 0 {
				fi = st
			}
			files = append(files, f)
			idxs = append(idxs, i)
		}
		return e
	})
	if err != nil {
		for _, f := range files {
			f.Close()
		}
		// A failed exclusive create must not leave the file behind on
		// the replicas it did reach: the caller was told the create
		// lost, so a later winner (or retry) must find those replicas
		// empty. Only this open's own creations are undone — replicas
		// that answered EEXIST hold someone else's file.
		if flags&vfs.O_EXCL != 0 && flags&vfs.O_CREAT != 0 {
			for _, i := range idxs {
				m.replicas[i].Unlink(path)
			}
		}
		return nil, vfs.FileInfo{}, err
	}
	return &mirrorFile{m: m, files: files, idxs: idxs}, fi, nil
}

// Stat reads from the healthiest reachable replica.
func (m *MirrorFS) Stat(path string) (vfs.FileInfo, error) {
	fi, _, err := mirrorRead(m, func(fs vfs.FileSystem) (vfs.FileInfo, error) {
		return fs.Stat(path)
	}, nil)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fi, nil
}

// Unlink removes the file from every reachable replica.
func (m *MirrorFS) Unlink(path string) error {
	return m.applyAll(func(_ int, fs vfs.FileSystem) error { return fs.Unlink(path) })
}

// Rename renames on every reachable replica.
func (m *MirrorFS) Rename(oldPath, newPath string) error {
	return m.applyAll(func(_ int, fs vfs.FileSystem) error { return fs.Rename(oldPath, newPath) })
}

// Mkdir creates the directory on every reachable replica.
func (m *MirrorFS) Mkdir(path string, mode uint32) error {
	return m.applyAll(func(_ int, fs vfs.FileSystem) error { return fs.Mkdir(path, mode) })
}

// Rmdir removes the directory from every reachable replica.
func (m *MirrorFS) Rmdir(path string) error {
	return m.applyAll(func(_ int, fs vfs.FileSystem) error { return fs.Rmdir(path) })
}

// ReadDir lists from the healthiest reachable replica.
func (m *MirrorFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	ents, _, err := mirrorRead(m, func(fs vfs.FileSystem) ([]vfs.DirEntry, error) {
		return fs.ReadDir(path)
	}, nil)
	if err != nil {
		return nil, err
	}
	return ents, nil
}

// Truncate truncates on every reachable replica.
func (m *MirrorFS) Truncate(path string, size int64) error {
	return m.applyAll(func(_ int, fs vfs.FileSystem) error { return fs.Truncate(path, size) })
}

// Chmod applies to every reachable replica.
func (m *MirrorFS) Chmod(path string, mode uint32) error {
	return m.applyAll(func(_ int, fs vfs.FileSystem) error { return fs.Chmod(path, mode) })
}

// StatFS reports the minimum capacity over reachable replicas: the
// mirror can store no more than its smallest member.
func (m *MirrorFS) StatFS() (vfs.FSInfo, error) {
	var out vfs.FSInfo
	found := false
	for i, r := range m.replicas {
		if !m.breakers[i].Ready() {
			m.maybeProbe(i)
			continue
		}
		info, err := r.StatFS()
		m.record(i, err)
		if err != nil {
			continue
		}
		if !found || info.FreeBytes < out.FreeBytes {
			out = info
		}
		found = true
	}
	if !found {
		return out, vfs.EIO
	}
	return out, nil
}

// Reconnect re-establishes every replica connection that supports it.
func (m *MirrorFS) Reconnect() error { return vfs.ReconnectAll(m.replicas...) }

// Sync synchronizes a stale replica from a good one: every file and
// directory under root on src is copied to dst. It is the manual
// repair path for replicas that were down during writes.
func Sync(dst, src vfs.FileSystem, root string) error {
	ents, err := src.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := root + "/" + e.Name
		if root == "/" {
			p = "/" + e.Name
		}
		if e.IsDir {
			if err := dst.Mkdir(p, 0o755); err != nil && vfs.AsErrno(err) != vfs.EEXIST {
				return err
			}
			if err := Sync(dst, src, p); err != nil {
				return err
			}
			continue
		}
		if _, err := vfs.CopyFile(dst, p, src, p, 0); err != nil {
			return err
		}
	}
	return nil
}

// mirrorFile is an open file on one or more replicas: writes fan out,
// reads come from the first. A read-only mirrorFile remembers how it
// was opened so a mid-read transport failure can fail over: reopen on
// the next healthy replica and retry there.
type mirrorFile struct {
	m  *MirrorFS
	mu sync.Mutex

	files []vfs.File
	idxs  []int // replica index backing each file

	readOnly bool
	path     string
	flags    int
	mode     uint32
}

// readOp runs op against the current replica's file, failing over to
// other healthy replicas on transport errors. Read-mode operations
// serialize on mf.mu so failover can swap the backing file safely.
func (mf *mirrorFile) readOp(op func(f vfs.File) error) error {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	err := op(mf.files[0])
	mf.m.record(mf.idxs[0], err)
	if err == nil || !unreachable(err) {
		return err
	}
	failed := mf.idxs[0]
	lastErr := err
	ready, demoted := mf.m.order()
	for _, i := range demoted {
		mf.m.maybeProbe(i)
	}
	for _, i := range ready {
		if i == failed {
			continue
		}
		g, err := mf.m.replicas[i].Open(mf.path, mf.flags, mf.mode)
		mf.m.record(i, err)
		if err != nil {
			if unreachable(err) {
				lastErr = err
				continue
			}
			return err
		}
		err = op(g)
		mf.m.record(i, err)
		if err == nil || !unreachable(err) {
			old := mf.files[0]
			mf.files[0], mf.idxs[0] = g, i
			old.Close()
			return err
		}
		g.Close()
		lastErr = err
	}
	return lastErr
}

func (mf *mirrorFile) Pread(p []byte, off int64) (int, error) {
	if !mf.readOnly {
		return mf.files[0].Pread(p, off)
	}
	var n int
	err := mf.readOp(func(f vfs.File) error {
		var e error
		n, e = f.Pread(p, off)
		return e
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

func (mf *mirrorFile) Pwrite(p []byte, off int64) (int, error) {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	n := 0
	for i, f := range mf.files {
		m, err := f.Pwrite(p, off)
		mf.m.record(mf.idxs[i], err)
		if err != nil {
			return m, err
		}
		if i == 0 {
			n = m
		} else if m < n {
			n = m
		}
	}
	return n, nil
}

func (mf *mirrorFile) Fstat() (vfs.FileInfo, error) {
	if !mf.readOnly {
		return mf.files[0].Fstat()
	}
	var fi vfs.FileInfo
	err := mf.readOp(func(f vfs.File) error {
		var e error
		fi, e = f.Fstat()
		return e
	})
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fi, nil
}

func (mf *mirrorFile) Ftruncate(size int64) error {
	for _, f := range mf.files {
		if err := f.Ftruncate(size); err != nil {
			return err
		}
	}
	return nil
}

func (mf *mirrorFile) Sync() error {
	for _, f := range mf.files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (mf *mirrorFile) Close() error {
	var first error
	for _, f := range mf.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
