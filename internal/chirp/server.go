// Package chirp implements the Chirp personal file server and client —
// the resource layer of the tactical storage system (§4 of the paper).
//
// A server exports one host directory over a Unix-like protocol with
// per-directory ACLs and virtual-user-space authentication. It can be
// deployed by an ordinary user with a single call: no privileges,
// kernel modules, or configuration files. The client implements
// vfs.FileSystem, so a remote server is usable anywhere a local
// filesystem is — the recursive storage abstraction.
package chirp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/catalog"
	"tss/internal/chirp/proto"
	"tss/internal/obs"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// ACLFileName is the name of the per-directory ACL file. It is hidden
// from directory listings and unreachable through the protocol.
const ACLFileName = ".__acl"

// ServerConfig configures a file server.
type ServerConfig struct {
	// Name is the advertised server name (host:port or symbolic).
	Name string
	// Owner is the subject that receives all rights on a fresh root.
	Owner auth.Subject
	// Verifiers are the authentication methods the server accepts.
	Verifiers []auth.Verifier
	// RootACL, when non-nil, seeds the root directory ACL of a fresh
	// root (the owner entry is always added).
	RootACL *acl.List
	// MaxFDs bounds open descriptors per connection (default 256).
	MaxFDs int
	// IdleTimeout disconnects clients idle for this long (0 = none).
	IdleTimeout time.Duration
	// LeaseTTL bounds read leases granted to caching clients (default
	// DefaultLeaseTTL). It is the server's staleness bound: a
	// partitioned holder may serve cached data for at most this long.
	LeaseTTL time.Duration
	// MaxInflight bounds concurrently executing RPCs across all
	// connections; excess requests wait in a short admission queue and
	// are shed with EAGAIN when it fills (0 = unlimited, admission
	// control off). See DESIGN.md §15.
	MaxInflight int
	// MaxSessions bounds concurrently served connections; excess
	// connections are refused at accept (0 = unlimited).
	MaxSessions int
	// QueueDepth bounds admission-queue waiters per priority class
	// (default MaxInflight when admission control is on).
	QueueDepth int
	// QueueTimeout bounds how long an RPC may wait for admission before
	// being shed with EAGAIN (default DefaultQueueTimeout).
	QueueTimeout time.Duration
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, holds the server's counters (Stats),
	// per-RPC latency histograms ("chirp_server.rpc.<verb>") and the
	// drain and admission gauges. Nil keeps the counters in a private
	// registry and disables the histograms and gauges.
	Metrics *obs.Registry
}

// ServerStats is the server's counters, exposed for catalogs and tests.
// Each field is a handle to a registry counter (newServerStats names
// the series; DESIGN.md §8 lists them).
type ServerStats struct {
	Connections *obs.Counter
	// Requests counts request lines, known verbs or not; the deadline
	// prefix annotates the request after it and is not counted.
	Requests    *obs.Counter
	BytesRead   *obs.Counter
	BytesWriten *obs.Counter
	// RPCErrors counts requests answered with a negative status;
	// RPCUnknown those whose verb is not in the §5.1 table.
	RPCErrors  *obs.Counter
	RPCUnknown *obs.Counter
	// BulkFastpath and MultipartFastpath count whole-file and part
	// transfers that took the sendfile/splice path.
	BulkFastpath      *obs.Counter
	MultipartFastpath *obs.Counter
	// ACLHits, ACLMisses and ACLInvalidations count the ACL cache
	// (DESIGN.md §5.2).
	ACLHits          *obs.Counter
	ACLMisses        *obs.Counter
	ACLInvalidations *obs.Counter
	// Drains counts completed Shutdown calls.
	Drains *obs.Counter
	// DrainForced counts connections force-closed because the drain
	// context expired before they finished.
	DrainForced *obs.Counter
	// Aborts counts Abort calls — simulated crashes.
	Aborts *obs.Counter
	// LeaseGrants counts read leases granted to caching clients.
	LeaseGrants *obs.Counter
	// LeaseBreaks counts outstanding leases broken by conflicting
	// writes (client-initiated leasebreak releases are not breaks).
	LeaseBreaks *obs.Counter
	// Shed counts RPCs refused with EAGAIN by admission control.
	Shed *obs.Counter
	// SessionsRefused counts connections refused by the session cap.
	SessionsRefused *obs.Counter
	// DeadlineRejects counts RPCs fast-rejected (or aborted
	// mid-transfer) because their propagated deadline lapsed.
	DeadlineRejects *obs.Counter
}

func newServerStats(reg *obs.Registry) ServerStats {
	return ServerStats{
		Connections:       reg.Counter("chirp_server.connections"),
		Requests:          reg.Counter("chirp_server.requests"),
		BytesRead:         reg.Counter("chirp_server.bytes_read"),
		BytesWriten:       reg.Counter("chirp_server.bytes_written"),
		RPCErrors:         reg.Counter("chirp_server.rpc_errors"),
		RPCUnknown:        reg.Counter("chirp_server.rpc_unknown"),
		BulkFastpath:      reg.Counter("chirp_server.bulk_fastpath"),
		MultipartFastpath: reg.Counter("chirp_server.multipart_fastpath"),
		ACLHits:           reg.Counter("chirp_server.acl_cache_hits"),
		ACLMisses:         reg.Counter("chirp_server.acl_cache_misses"),
		ACLInvalidations:  reg.Counter("chirp_server.acl_cache_invalidations"),
		Drains:            reg.Counter("chirp_server.drains"),
		DrainForced:       reg.Counter("chirp_server.drain_forced"),
		Aborts:            reg.Counter("chirp_server.aborts"),
		LeaseGrants:       reg.Counter("chirp_server.lease_grants"),
		LeaseBreaks:       reg.Counter("chirp_server.lease_breaks"),
		Shed:              reg.Counter("chirp_server.shed_total"),
		SessionsRefused:   reg.Counter("chirp_server.sessions_refused"),
		DeadlineRejects:   reg.Counter("chirp_server.deadline_rejects"),
	}
}

// Server is a Chirp file server bound to one exported directory.
type Server struct {
	cfg   ServerConfig
	fs    *vfs.LocalFS
	aclMu sync.Mutex // serializes ACL read-modify-write cycles and cache fills
	// acls is the ACL cache (DESIGN.md §5.2), by directory. Only holders
	// of aclMu change it; aclsMu lets checks read it beside them.
	aclsMu sync.RWMutex
	acls   map[string]*aclEntry

	draining atomic.Bool
	// disabled is a proto.Feature mask of verb groups this server
	// pretends to predate: their verbs are unknown verbs to dispatch,
	// answered EINVAL with nothing consumed from the stream. Set only by
	// in-package tests, to exercise the clients' negotiation downgrade.
	disabled atomic.Uint32
	// admission is the bounded in-flight gate of DESIGN.md §15; with
	// MaxInflight 0 it admits everything.
	admission *admission
	// leases is the read-lease table of DESIGN.md §14: outstanding
	// grants plus per-path version counters bumped on every
	// conflicting mutation.
	leases    leaseTable
	connMu    sync.Mutex
	conns     map[net.Conn]*connState
	listeners map[net.Listener]struct{}
	connWG    sync.WaitGroup

	// Per-RPC histograms and the drain gauge, pre-resolved at
	// construction; nil without a registry. rpcHist is indexed like
	// handlers, so /metrics shows every RPC from boot.
	rpcHist   []*obs.Histogram
	mDraining *obs.Gauge

	Stats ServerStats
}

// handler serves one parsed request. conn is the raw transport under
// br/bw; the bulk-data verbs use it to stream file bodies past the
// protocol buffers. A returned error is fatal to the connection (stream
// desync); per-request failures are reported to the client as negative
// status codes instead.
type handler func(ss *session, req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error

// Admission classes (DESIGN.md §15). Bulk is the data plane:
// whole-file streams, chunk transfers and the CPU-heavy digest work.
// Everything else — stat, lease renewal, descriptor bookkeeping,
// multipart framing — is control plane, admitted with priority under
// pressure.
const (
	control = false
	bulk    = true
)

// serverVerb is the server's side of one proto.Verbs entry.
type serverVerb struct {
	name   string
	bulk   bool
	handle handler
	wire   *proto.Verb // the entry joined by name
	index  int         // position in handlers and Server.rpcHist
}

// handlers joins every wire verb to its handler and admission class.
var handlers = []serverVerb{
	{name: "open", bulk: control, handle: (*session).handleOpen},
	{name: "pread", bulk: bulk, handle: (*session).handlePread},
	{name: "pwrite", bulk: bulk, handle: (*session).handlePwrite},
	{name: "fstat", bulk: control, handle: (*session).handleFstat},
	{name: "fsync", bulk: control, handle: (*session).handleFsync},
	{name: "ftruncate", bulk: control, handle: (*session).handleFtruncate},
	{name: "close", bulk: control, handle: (*session).handleClose},
	{name: "stat", bulk: control, handle: (*session).handleStat},
	{name: "unlink", bulk: control, handle: (*session).handleUnlink},
	{name: "rename", bulk: control, handle: (*session).handleRename},
	{name: "mkdir", bulk: control, handle: (*session).handleMkdir},
	{name: "rmdir", bulk: control, handle: (*session).handleRmdir},
	{name: "getdir", bulk: control, handle: (*session).handleGetdir},
	{name: "getfile", bulk: bulk, handle: (*session).handleGetfile},
	{name: "putfile", bulk: bulk, handle: (*session).handlePutfile},
	{name: "truncate", bulk: control, handle: (*session).handleTruncate},
	{name: "chmod", bulk: control, handle: (*session).handleChmod},
	{name: "getacl", bulk: control, handle: (*session).handleGetacl},
	{name: "setacl", bulk: control, handle: (*session).handleSetacl},
	{name: "statfs", bulk: control, handle: (*session).handleStatfs},
	{name: "whoami", bulk: control, handle: (*session).handleWhoami},
	{name: "checksum", bulk: bulk, handle: (*session).handleChecksum},
	{name: "getfilesum", bulk: bulk, handle: (*session).handleGetfilesum},
	{name: "putfilesum", bulk: bulk, handle: (*session).handlePutfilesum},
	{name: "putbegin", bulk: control, handle: (*session).handlePutbegin},
	{name: "putpart", bulk: bulk, handle: (*session).handlePutpart},
	{name: "putcomplete", bulk: control, handle: (*session).handlePutcomplete},
	{name: "getpart", bulk: bulk, handle: (*session).handleGetpart},
	{name: "lease", bulk: control, handle: (*session).handleLease},
	{name: "leasebreak", bulk: control, handle: (*session).handleLeasebreak},
	{name: "deadline", bulk: control, handle: (*session).handleDeadline},
}

// handlerByVerb indexes handlers by verb name, joining each to its
// proto.Verbs entry; a handler for a verb the wire does not declare is
// a build mistake caught at startup.
var handlerByVerb = func() map[string]*serverVerb {
	m := make(map[string]*serverVerb, len(handlers))
	for i := range handlers {
		sv := &handlers[i]
		sv.index = i
		if sv.wire = proto.Lookup(sv.name); sv.wire == nil {
			panic("chirp: handler for undeclared verb " + sv.name)
		}
		m[sv.name] = sv
	}
	return m
}()

// connState tracks one connection's drain-relevant state: whether a
// request is mid-flight (never interrupt it) and whether Shutdown has
// nudged the connection's read deadline to unblock an idle ReadLine.
type connState struct {
	mu     sync.Mutex
	busy   bool
	nudged bool
}

// NewServer creates a file server exporting root. If the root has no
// ACL yet, one is created granting the owner all rights.
func NewServer(root string, cfg ServerConfig) (*Server, error) {
	fs, err := vfs.NewLocalFS(root)
	if err != nil {
		return nil, err
	}
	if cfg.MaxFDs <= 0 {
		cfg.MaxFDs = 256
	}
	if cfg.Owner == "" {
		cfg.Owner = "unix:owner"
	}
	s := &Server{cfg: cfg, fs: fs, acls: make(map[string]*aclEntry), Stats: newServerStats(obs.OrNew(cfg.Metrics))}
	s.leases.init(cfg.LeaseTTL)
	s.admission = newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueTimeout, cfg.Metrics)
	if reg := cfg.Metrics; reg != nil {
		s.rpcHist = make([]*obs.Histogram, len(handlers))
		for i := range handlers {
			s.rpcHist[i] = reg.Histogram("chirp_server.rpc." + handlers[i].name)
		}
		s.mDraining = reg.Gauge("chirp_server.draining")
	}
	if err := s.ensureRootACL(); err != nil {
		return nil, err
	}
	return s, nil
}

// Name returns the advertised server name.
func (s *Server) Name() string { return s.cfg.Name }

// Owner returns the owner subject.
func (s *Server) Owner() auth.Subject { return s.cfg.Owner }

// FS exposes the underlying confined filesystem (owner access: the
// paper notes the owner retains access to all data on the server).
func (s *Server) FS() *vfs.LocalFS { return s.fs }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) ensureRootACL() error {
	s.aclMu.Lock()
	defer s.aclMu.Unlock()
	if _, err := s.fs.Stat("/" + ACLFileName); err == nil {
		return nil
	}
	list := &acl.List{}
	if s.cfg.RootACL != nil {
		list = s.cfg.RootACL.Clone()
	}
	list.Set(string(s.cfg.Owner), acl.AllRights|acl.V, acl.AllRights)
	return s.writeACL("/", list)
}

// maxACLEntries bounds the ACL cache. There are no negative entries, so
// probing names that do not exist cannot grow it either.
const maxACLEntries = 4096

// aclStamp identifies one version of an ACL file.
type aclStamp struct {
	ino                uint64
	size, mtime, ctime int64 // times in ns
}

// aclEntry is a directory's parsed ACL, valid while stamp is the file's.
type aclEntry struct {
	list  *acl.List // shared by concurrent checks: never mutated
	host  string    // host path of the ACL file, so a hit builds no string
	stamp aclStamp
}

func statACL(host string) (aclStamp, error) {
	var st syscall.Stat_t
	if err := syscall.Stat(host, &st); err != nil {
		return aclStamp{}, err
	}
	return aclStamp{st.Ino, st.Size, st.Mtim.Nano(), st.Ctim.Nano()}, nil
}

// aclGranule exceeds the step of a sub-second ctime: a tick, 10 ms at most.
const aclGranule = 20 * time.Millisecond

// settledAt reports whether a stamp taken after now can tell this
// version of the file from the next: a rewrite within one granule of
// ctime could leave the same stamp (git's racy entry), so such a version
// is not cached. Non-zero nanoseconds prove sub-second times; else allow
// two seconds.
func (st aclStamp) settledAt(now time.Time) bool {
	granule := 2 * time.Second
	if st.ctime%int64(time.Second) != 0 {
		granule = aclGranule
	}
	return now.UnixNano()-st.ctime >= int64(granule)
}

// putACL replaces dir's cache entry with e; nil drops it. Needs aclMu,
// whose holders alone write the map: reading it here needs no more, and
// with nothing to drop or add aclsMu and the checks under it are left be.
func (s *Server) putACL(dir string, e *aclEntry) {
	_, had := s.acls[dir]
	if !had && e == nil {
		return
	}
	s.aclsMu.Lock()
	defer s.aclsMu.Unlock()
	if had {
		s.Stats.ACLInvalidations.Inc()
		delete(s.acls, dir)
	}
	if e == nil {
		return
	}
	if len(s.acls) >= maxACLEntries {
		for victim := range s.acls {
			delete(s.acls, victim)
			break
		}
	}
	s.acls[strings.Clone(dir)] = e // dir is a slice of a request line
}

// readACL is the cache's miss path, the only code that opens an ACL
// file (host is its host path): it returns the ACL stored exactly at
// dir, or nil if absent, and caches it once settled. It needs aclMu,
// which in-band writers hold from truncate to last byte, so a
// half-written file is never parsed. Clock, then stamp, then content:
// an edit in between leaves an older stamp on fresh content (one more
// miss), and any later one gets a ctime after now.
func (s *Server) readACL(dir, host string) (*acl.List, error) {
	now := time.Now()
	stamp, statErr := statACL(host)
	var list *acl.List
	data, err := vfs.ReadFile(s.fs, pathutil.Join(dir, ACLFileName))
	if err == nil {
		list, err = acl.Parse(data)
	}
	var e *aclEntry
	if err == nil && statErr == nil && stamp.settledAt(now) {
		e = &aclEntry{list: list, host: host, stamp: stamp}
	}
	s.putACL(dir, e)
	if vfs.AsErrno(err) == vfs.ENOENT {
		return nil, nil
	}
	return list, err
}

// aclAt returns the ACL stored exactly at dir, or nil if absent: from
// the cache while the file's stamp matches (a map lookup, a stat outside
// the lock), else from disk under aclMu; locked says the caller holds it.
func (s *Server) aclAt(dir string, locked bool) (*acl.List, error) {
	s.aclsMu.RLock()
	e := s.acls[dir]
	s.aclsMu.RUnlock()
	if e != nil {
		if stamp, err := statACL(e.host); err == nil && stamp == e.stamp {
			s.Stats.ACLHits.Inc()
			return e.list, nil
		}
	}
	s.Stats.ACLMisses.Inc()
	host, _ := s.fs.HostPath(pathutil.Join(dir, ACLFileName)) // cannot fail on a normalized dir; if it did, so would the stat
	if e == nil {
		// No ACL file (data exported as found): one failed stat and no
		// lock, with nothing there to be half-written and no entry to drop.
		if _, err := statACL(host); err == syscall.ENOENT {
			return nil, nil
		}
	}
	if !locked {
		s.aclMu.Lock()
		defer s.aclMu.Unlock()
	}
	return s.readACL(dir, host)
}

// writeACL stores list as dir's ACL. Callers hold aclMu.
func (s *Server) writeACL(dir string, list *acl.List) error {
	s.putACL(dir, nil)
	return vfs.WriteFile(s.fs, pathutil.Join(dir, ACLFileName), list.Encode(), 0o644)
}

// effectiveACL walks from dir toward the root and returns the nearest
// ACL, so directories created outside the protocol (pre-existing data
// being exported) inherit their ancestor's policy. The list is shared
// with the cache: Clone before changing it. locked is as for aclAt.
func (s *Server) effectiveACL(dir string, locked bool) (*acl.List, error) {
	for {
		l, err := s.aclAt(dir, locked)
		if err != nil {
			return nil, err
		}
		if l != nil {
			return l, nil
		}
		if pathutil.IsRoot(dir) {
			// Root ACL is created at startup; reaching here means it
			// was deleted out from under us.
			return nil, vfs.EIO
		}
		dir = pathutil.Dir(dir)
	}
}

// checkDir verifies that subject holds at least one of the right sets
// wants in directory dir.
func (s *Server) checkDir(subject auth.Subject, dir string, wants ...acl.Rights) error {
	l, err := s.effectiveACL(dir, false)
	if err != nil {
		return err
	}
	for _, w := range wants {
		if l.Allows(string(subject), w) {
			return nil
		}
	}
	return vfs.EACCES
}

// checkParent is checkDir on the parent directory of path.
func (s *Server) checkParent(subject auth.Subject, path string, wants ...acl.Rights) error {
	return s.checkDir(subject, pathutil.Dir(path), wants...)
}

// normPath validates and normalizes a client path, rejecting any
// attempt to name the ACL file directly.
func normPath(p string) (string, error) {
	n, err := pathutil.Norm(p)
	if err != nil {
		return "", vfs.EINVAL
	}
	for rest := n[1:]; rest != ""; {
		var c string
		if c, rest, _ = strings.Cut(rest, "/"); c == ACLFileName {
			return "", vfs.EACCES
		}
	}
	return n, nil
}

// normPaths applies normPath to every path argument v declares, so no
// handler sees a client path that is unnormalized or names an ACL file.
func normPaths(v *proto.Verb, req *proto.Request) (err error) {
	for _, f := range v.Args {
		switch f {
		case proto.ArgPath:
			req.Path, err = normPath(req.Path)
		case proto.ArgPath2:
			req.Path2, err = normPath(req.Path2)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Serve accepts connections until the listener is closed (directly or
// by Shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.draining.Load() {
		s.connMu.Unlock()
		l.Close()
		return nil
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.listeners, l)
		s.connMu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// track registers a connection for drain accounting; it returns nil
// when the server is already draining — or the session cap is reached —
// and the connection must be refused.
func (s *Server) track(conn net.Conn) *connState {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining.Load() {
		return nil
	}
	if max := s.cfg.MaxSessions; max > 0 && len(s.conns) >= max {
		s.Stats.SessionsRefused.Inc()
		return nil
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	st := &connState{}
	s.conns[conn] = st
	s.connWG.Add(1)
	return st
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.connWG.Done()
}

// Draining reports whether Shutdown has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown gracefully drains the server: it stops accepting new
// connections, lets requests already in flight run to completion, and
// unblocks connections idle between requests. When ctx expires before
// the drain completes, remaining connections are force-closed and the
// context error is returned. After Shutdown the server refuses new
// connections permanently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mDraining.Set(1)
	// Queued-but-unstarted RPCs fail with ESHUTDOWN right now — a full
	// admission queue must not stall the drain for a queue-timeout (or
	// deadline-length) period. In-flight RPCs keep their slots.
	s.admission.drain()
	s.connMu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	for c, st := range s.conns {
		st.mu.Lock()
		if !st.busy {
			// Idle between requests (or mid-auth): interrupt the blocked
			// read. A request line racing this nudge is saved by the
			// serving loop, which clears the deadline once the line
			// lands.
			st.nudged = true
			c.SetReadDeadline(time.Unix(1, 0))
		}
		st.mu.Unlock()
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.Stats.Drains.Inc()
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for c := range s.conns {
			s.Stats.DrainForced.Inc()
			c.Close()
		}
		s.connMu.Unlock()
		<-done
		s.Stats.Drains.Inc()
		return ctx.Err()
	}
}

// Abort kills the server the way a crash would: listeners and every
// live connection are closed immediately, with no drain and no
// farewell to requests in flight. Clients observe the same abrupt
// transport errors a chirpd process death produces. Like Shutdown,
// the server refuses new connections permanently afterwards; a
// "rebooted" instance is a fresh Server constructed over the same
// root directory. Abort returns once every connection handler has
// exited, so server-side descriptor state is fully released — the
// paper's failure semantics (§6) tie all per-connection state to the
// connection's lifetime.
func (s *Server) Abort() {
	s.draining.Store(true)
	s.mDraining.Set(1)
	s.admission.drain()
	s.connMu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	s.Stats.Aborts.Inc()
}

// ServeConn authenticates and serves a single connection, returning
// when the peer disconnects. Per the paper's failure semantics, all
// server-side state for the connection — in particular open file
// descriptors — is released when the connection ends.
func (s *Server) ServeConn(conn net.Conn) {
	st := s.track(conn)
	if st == nil {
		// Already draining: refuse.
		conn.Close()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			log.Printf("chirp: panic serving %v: %v", conn.RemoteAddr(), r)
		}
		conn.Close()
		s.untrack(conn)
	}()
	s.Stats.Connections.Inc()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	peer := auth.PeerInfo{Addr: conn.RemoteAddr().String()}
	subject, err := auth.Accept(br, flushWriter{bw}, peer, s.cfg.Verifiers...)
	if err != nil {
		s.logf("chirp: auth failed for %v: %v", conn.RemoteAddr(), err)
		return
	}
	s.logf("chirp: %v authenticated as %s", conn.RemoteAddr(), subject)

	sess := &session{srv: s, subject: subject, files: make(map[int64]*openFD)}
	defer sess.closeAll()

	for {
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		line, err := proto.ReadLine(br)
		if err != nil {
			return // disconnect: free everything
		}
		// The request is now in flight: a drain must let it finish. If a
		// drain nudge raced the arriving request line, clear the poisoned
		// read deadline so the data phase and response go through.
		st.mu.Lock()
		st.busy = true
		if st.nudged {
			conn.SetReadDeadline(time.Time{})
			st.nudged = false
		}
		st.mu.Unlock()
		if err := sess.dispatch(line, conn, br, bw); err != nil {
			s.logf("chirp: %s: fatal: %v", subject, err)
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		st.mu.Lock()
		st.busy = false
		st.mu.Unlock()
		if s.draining.Load() {
			return // drain: this request was the connection's last
		}
	}
}

// flushWriter flushes after every write; the auth dialog is interactive
// line-at-a-time traffic.
type flushWriter struct{ w *bufio.Writer }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err == nil {
		err = f.w.Flush()
	}
	return n, err
}

type openFD struct {
	file vfs.File
	path string
}

// session is the per-connection server state.
type session struct {
	srv     *Server
	subject auth.Subject
	files   map[int64]*openFD
	nextFD  int64
	// leases are the live grants made on this connection, released at
	// disconnect like descriptors; the lease table keeps it.
	leases leaseLedger
	// armed is the deadline set by the last "deadline" prefix line,
	// consumed by the next dispatched request (zero = none).
	armed time.Time
	// reqDeadline is the deadline governing the request currently in
	// flight; bulk loops poll it and abort the stream when it lapses.
	reqDeadline time.Time
	// scratch is the session's response-line encoding buffer; a session
	// serves one connection serially, so reuse is race-free and the
	// per-line allocation of fmt.Fprintf disappears from the hot path.
	scratch []byte
}

func (ss *session) closeAll() {
	for _, f := range ss.files {
		f.file.Close()
	}
	ss.files = nil
	ss.srv.leases.releaseOwned(&ss.leases)
}

func respondCode(bw *bufio.Writer, v int64) error {
	var b [21]byte // fits any int64 plus the newline
	if _, err := bw.Write(strconv.AppendInt(b[:0], v, 10)); err != nil {
		return err
	}
	return bw.WriteByte('\n')
}

// writeStat renders one stat response line through the session scratch
// buffer.
func (ss *session) writeStat(bw *bufio.Writer, fi vfs.FileInfo) error {
	ss.scratch = append(proto.AppendStat(ss.scratch[:0], fi), '\n')
	_, err := bw.Write(ss.scratch)
	return err
}

// respondErr reports a per-request status to the client, counting
// failed requests into the server metrics.
func (ss *session) respondErr(bw *bufio.Writer, err error) error {
	code := vfs.Code(err)
	if code != 0 {
		ss.srv.Stats.RPCErrors.Inc()
	}
	return respondCode(bw, int64(code))
}

// dispatch handles one request line: look the verb up, shed the
// request if its deadline lapsed or admission refuses it, call the
// handler. A returned error is fatal to the connection (stream desync).
func (ss *session) dispatch(line string, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	srv := ss.srv
	sv := handlerByVerb[proto.VerbOf(line)]
	if sv != nil && srv.disabled.Load()&sv.wire.Feature.Bit() != 0 {
		sv = nil
	}
	if sv == nil || !sv.wire.Prefix {
		// A prefix verb annotates the request that follows; it is
		// protocol overhead, not an RPC of its own.
		srv.Stats.Requests.Inc()
	}
	if sv == nil {
		// Unknown verb: nothing is known about a data phase, so nothing
		// is consumed; the line framing is intact.
		srv.Stats.RPCUnknown.Inc()
		return ss.respondErr(bw, vfs.EINVAL)
	}
	req, err := proto.ParseRequest(line)
	if err != nil {
		// Malformed arguments: report and continue, as above.
		return ss.respondErr(bw, vfs.EINVAL)
	}
	if srv.rpcHist != nil {
		defer srv.rpcHist[sv.index].Since(time.Now())
	}
	if sv.wire.Prefix {
		// The pipelined deadline prefix arms the next request; it is
		// pure bookkeeping and bypasses admission control — refusing it
		// would only hide the very information load shedding wants.
		return sv.handle(ss, req, conn, br, bw)
	}
	// Consume the armed deadline: it governs exactly one request.
	ss.reqDeadline, ss.armed = ss.armed, time.Time{}
	if ss.deadlineLapsed() {
		// Nobody is waiting for this answer; burn no cycles on it.
		srv.Stats.DeadlineRejects.Inc()
		return ss.reject(sv.wire, req, br, bw, vfs.ETIMEDOUT)
	}
	if err := srv.admission.acquire(sv.bulk); err != nil {
		if err == vfs.EAGAIN {
			srv.Stats.Shed.Inc()
		}
		return ss.reject(sv.wire, req, br, bw, err)
	}
	defer srv.admission.release()
	if ss.deadlineLapsed() {
		// The deadline lapsed while the request waited for admission.
		srv.Stats.DeadlineRejects.Inc()
		return ss.reject(sv.wire, req, br, bw, vfs.ETIMEDOUT)
	}
	if err := normPaths(sv.wire, req); err != nil {
		return ss.reject(sv.wire, req, br, bw, err)
	}
	return sv.handle(ss, req, conn, br, bw)
}

func (ss *session) handleOpen(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	flags := int(req.Flags)
	want := acl.R
	if flags&vfs.AccessModeMask != vfs.O_RDONLY || flags&(vfs.O_CREAT|vfs.O_TRUNC|vfs.O_APPEND) != 0 {
		want = acl.W
	}
	if err := ss.srv.checkParent(ss.subject, path, want); err != nil {
		return ss.respondErr(bw, err)
	}
	if len(ss.files) >= ss.srv.cfg.MaxFDs {
		return ss.respondErr(bw, vfs.EMFILE)
	}
	f, err := ss.srv.fs.Open(path, flags, uint32(req.Mode))
	if err != nil {
		return ss.respondErr(bw, err)
	}
	// The open response carries the stat line, so clients get the
	// metadata (notably the inode, which the adapter's recovery
	// protocol needs) without a second round trip.
	fi, err := f.Fstat()
	if err != nil {
		f.Close()
		return ss.respondErr(bw, err)
	}
	ss.nextFD++
	fd := ss.nextFD
	ss.files[fd] = &openFD{file: f, path: path}
	if flags&(vfs.O_CREAT|vfs.O_TRUNC) != 0 {
		// The open itself may have created or emptied the file; break
		// leases on it and on its directory's entry list.
		ss.srv.breakLeases(path, pathutil.Dir(path))
	}
	if err := respondCode(bw, fd); err != nil {
		return err
	}
	return ss.writeStat(bw, fi)
}

func (ss *session) fd(id int64) (*openFD, error) {
	f, ok := ss.files[id]
	if !ok {
		return nil, vfs.EBADF
	}
	return f, nil
}

func (ss *session) handlePread(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	f, err := ss.fd(req.FD)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if req.Length < 0 || req.Length > proto.MaxIOSize || req.Offset < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	bp := vfs.GetBuf(int(req.Length))
	defer vfs.PutBuf(bp)
	buf := *bp
	n, err := f.file.Pread(buf, req.Offset)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	ss.srv.Stats.BytesRead.Add(int64(n))
	if err := respondCode(bw, int64(n)); err != nil {
		return err
	}
	_, err = bw.Write(buf[:n])
	return err
}

func (ss *session) handlePwrite(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	if req.Length < 0 || req.Length > proto.MaxIOSize || req.Offset < 0 {
		// Cannot honor the data phase safely; the stream is desynced.
		ss.respondErr(bw, vfs.EINVAL)
		return fmt.Errorf("pwrite length out of range")
	}
	bp := vfs.GetBuf(int(req.Length))
	defer vfs.PutBuf(bp)
	buf := *bp
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	f, err := ss.fd(req.FD)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	n, err := f.file.Pwrite(buf, req.Offset)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	ss.srv.breakLeases(f.path)
	ss.srv.Stats.BytesWriten.Add(int64(n))
	return respondCode(bw, int64(n))
}

func (ss *session) handleFstat(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	f, err := ss.fd(req.FD)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	fi, err := f.file.Fstat()
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	return ss.writeStat(bw, fi)
}

func (ss *session) handleFsync(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	f, err := ss.fd(req.FD)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	return ss.respondErr(bw, f.file.Sync())
}

func (ss *session) handleFtruncate(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	f, err := ss.fd(req.FD)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if req.Size < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	err = f.file.Ftruncate(req.Size)
	if err == nil {
		ss.srv.breakLeases(f.path)
	}
	return ss.respondErr(bw, err)
}

func (ss *session) handleClose(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	f, err := ss.fd(req.FD)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	delete(ss.files, req.FD)
	return ss.respondErr(bw, f.file.Close())
}

func (ss *session) handleStat(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkParent(ss.subject, path, acl.L); err != nil {
		return ss.respondErr(bw, err)
	}
	fi, err := ss.srv.fs.Stat(path)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	return ss.writeStat(bw, fi)
}

func (ss *session) handleUnlink(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkParent(ss.subject, path, acl.W, acl.D); err != nil {
		return ss.respondErr(bw, err)
	}
	err := ss.srv.fs.Unlink(path)
	if err == nil {
		ss.srv.breakLeases(path, pathutil.Dir(path))
	}
	return ss.respondErr(bw, err)
}

func (ss *session) handleRename(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	oldPath := req.Path
	newPath := req.Path2
	if err := ss.srv.checkParent(ss.subject, oldPath, acl.W, acl.D); err != nil {
		return ss.respondErr(bw, err)
	}
	if err := ss.srv.checkParent(ss.subject, newPath, acl.W); err != nil {
		return ss.respondErr(bw, err)
	}
	err := ss.srv.fs.Rename(oldPath, newPath)
	if err == nil {
		ss.srv.breakLeases(oldPath, newPath, pathutil.Dir(oldPath), pathutil.Dir(newPath))
		// A directory takes its subtree along. What arrived at newPath
		// says which it was; if that cannot be told, assume a directory.
		if fi, serr := ss.srv.fs.Stat(newPath); serr != nil || fi.IsDir {
			ss.srv.breakLeaseTrees(oldPath, newPath)
		}
	}
	return ss.respondErr(bw, err)
}

func (ss *session) handleMkdir(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if pathutil.IsRoot(path) {
		return ss.respondErr(bw, vfs.EEXIST)
	}
	ss.srv.aclMu.Lock()
	defer ss.srv.aclMu.Unlock()
	parent, err := ss.srv.effectiveACL(pathutil.Dir(path), true)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	rights, reserve := parent.RightsFor(string(ss.subject))
	var childACL *acl.List
	switch {
	case rights.Has(acl.W):
		// Ordinary mkdir: the new directory inherits the parent policy.
		childACL = parent.Clone()
	case rights.Has(acl.V):
		// Reservation (§4): the new directory belongs to the caller,
		// with exactly the sub-rights named in the parent's v(...)
		// entry — no more. If A was omitted there, the creator cannot
		// extend access to anyone else.
		childACL = &acl.List{}
		childACL.Set(string(ss.subject), reserve, 0)
	default:
		return ss.respondErr(bw, vfs.EACCES)
	}
	if err := ss.srv.fs.Mkdir(path, uint32(req.Mode)); err != nil {
		return ss.respondErr(bw, err)
	}
	if err := ss.srv.writeACL(path, childACL); err != nil {
		ss.srv.fs.Rmdir(path)
		return ss.respondErr(bw, err)
	}
	ss.srv.breakLeases(path, pathutil.Dir(path))
	return respondCode(bw, 0)
}

func (ss *session) handleRmdir(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if pathutil.IsRoot(path) {
		return ss.respondErr(bw, vfs.EBUSY)
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W, acl.D); err != nil {
		return ss.respondErr(bw, err)
	}
	ss.srv.aclMu.Lock()
	defer ss.srv.aclMu.Unlock()
	// A directory whose only remaining entry is its ACL file counts as
	// empty; remove the ACL first, restoring it if rmdir then fails.
	ents, err := ss.srv.fs.ReadDir(path)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	hadACL := false
	for _, e := range ents {
		if e.Name == ACLFileName {
			hadACL = true
			continue
		}
		return ss.respondErr(bw, vfs.ENOTEMPTY)
	}
	var saved *acl.List
	if hadACL {
		saved, _ = ss.srv.aclAt(path, true)
		ss.srv.putACL(path, nil)
		if err := ss.srv.fs.Unlink(pathutil.Join(path, ACLFileName)); err != nil {
			return ss.respondErr(bw, err)
		}
	}
	if err := ss.srv.fs.Rmdir(path); err != nil {
		if saved != nil {
			ss.srv.writeACL(path, saved)
		}
		return ss.respondErr(bw, err)
	}
	ss.srv.breakLeases(path, pathutil.Dir(path))
	return respondCode(bw, 0)
}

func (ss *session) handleGetdir(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkDir(ss.subject, path, acl.L); err != nil {
		return ss.respondErr(bw, err)
	}
	ents, err := ss.srv.fs.ReadDir(path)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	visible := ents[:0]
	for _, e := range ents {
		if e.Name != ACLFileName {
			visible = append(visible, e)
		}
	}
	if err := respondCode(bw, int64(len(visible))); err != nil {
		return err
	}
	for _, e := range visible {
		ss.scratch = append(proto.AppendDirEntry(ss.scratch[:0], e), '\n')
		if _, err := bw.Write(ss.scratch); err != nil {
			return err
		}
	}
	return nil
}

// bulkConn returns the raw TCP connection under the session transport
// when the bulk fast path can use it, or nil. Simulated and wrapped
// connections take the buffered path.
func bulkConn(conn net.Conn) *net.TCPConn {
	tcp, _ := conn.(*net.TCPConn)
	return tcp
}

// osFileOf unwraps a host-backed file for zero-copy streaming.
func osFileOf(f vfs.File) *os.File {
	if o, ok := f.(vfs.OSFiler); ok {
		return o.OSFile()
	}
	return nil
}

func (ss *session) handleGetfile(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkParent(ss.subject, path, acl.R); err != nil {
		return ss.respondErr(bw, err)
	}
	f, err := ss.srv.fs.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	defer f.Close()
	fi, err := f.Fstat()
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if err := respondCode(bw, fi.Size); err != nil {
		return err
	}
	// Stream exactly fi.Size bytes: the count was already promised, so
	// a concurrently shrinking file is padded with zeros to keep the
	// stream in sync.
	var off int64
	if tcp := bulkConn(conn); tcp != nil {
		if osf := osFileOf(f); osf != nil {
			// Zero-copy bulk path: flush the status line, then hand the
			// host file straight to the TCP stack — io.Copy resolves to
			// TCPConn.ReadFrom, which uses sendfile(2) on a *os.File.
			// The file was opened fresh at offset zero and nothing else
			// moves its offset.
			if err := bw.Flush(); err != nil {
				return err
			}
			n, err := io.Copy(tcp, &io.LimitedReader{R: osf, N: fi.Size})
			ss.srv.Stats.BytesRead.Add(n)
			ss.srv.Stats.BulkFastpath.Inc()
			if err != nil {
				return err
			}
			off = n // a shrunken file leaves off < fi.Size: pad below
		}
	}
	bp := vfs.GetWindow(fi.Size - off)
	defer vfs.PutBuf(bp)
	buf := *bp
	for off < fi.Size {
		if ss.deadlineLapsed() {
			return ss.abortStream()
		}
		want := int64(len(buf))
		if fi.Size-off < want {
			want = fi.Size - off
		}
		n, err := f.Pread(buf[:want], off)
		if err != nil {
			return err
		}
		if n == 0 {
			for i := range buf[:want] {
				buf[i] = 0
			}
			n = int(want)
		}
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		off += int64(n)
		ss.srv.Stats.BytesRead.Add(int64(n))
	}
	return nil
}

// countingReader counts bytes consumed from the transport during a
// bulk receive, so a write-side failure mid-copy still knows exactly
// where the protocol stream stands. It records read errors separately:
// a failed transport read is fatal to the connection, a failed file
// write is a per-request error.
type countingReader struct {
	r       io.Reader
	n       int64
	readErr error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF {
		c.readErr = err
	}
	return n, err
}

// receiveBulk streams length body bytes into the host file osf: first
// whatever bufio already holds, then the remainder directly from the
// transport (where the runtime can splice socket-to-file). It returns
// the bytes consumed from the stream and the first error, with
// transportErr set when the error came from the transport read side.
func receiveBulk(osf *os.File, conn net.Conn, br *bufio.Reader, length int64) (consumed int64, err error, transportErr bool) {
	if buffered := int64(br.Buffered()); buffered > 0 {
		if buffered > length {
			buffered = length
		}
		cr := &countingReader{r: io.LimitReader(br, buffered)}
		_, err = io.Copy(osf, cr)
		consumed += cr.n
		if err != nil {
			return consumed, err, false // bufio reads cannot fail
		}
	}
	if consumed < length {
		cr := &countingReader{r: conn}
		_, err = io.Copy(osf, io.LimitReader(cr, length-consumed))
		consumed += cr.n
		if err != nil {
			return consumed, err, cr.readErr != nil
		}
	}
	return consumed, nil, false
}

func (ss *session) handlePutfile(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if req.Length < 0 {
		ss.respondErr(bw, vfs.EINVAL)
		return fmt.Errorf("putfile negative length")
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		io.CopyN(io.Discard, br, req.Length)
		return ss.respondErr(bw, err)
	}
	f, err := ss.srv.fs.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, uint32(req.Mode))
	if err != nil {
		io.CopyN(io.Discard, br, req.Length)
		return ss.respondErr(bw, err)
	}
	// The open created or truncated the file: leases are broken now,
	// before any acknowledgement, even if the body copy fails midway.
	ss.srv.breakLeases(path, pathutil.Dir(path))
	if osf := osFileOf(f); osf != nil {
		// Bulk fast path: the file was opened fresh and truncated, so
		// sequential writes from offset zero are exactly the body.
		consumed, copyErr, transport := receiveBulk(osf, conn, br, req.Length)
		ss.srv.Stats.BytesWriten.Add(consumed)
		ss.srv.Stats.BulkFastpath.Inc()
		if copyErr != nil {
			f.Close()
			if transport {
				return copyErr
			}
			// Write-side failure (e.g. disk full): resynchronize the
			// stream by draining the rest of the body, then report.
			if _, err := io.CopyN(io.Discard, br, req.Length-consumed); err != nil {
				return err
			}
			return ss.respondErr(bw, vfs.AsErrno(copyErr))
		}
		if consumed < req.Length {
			// The peer closed mid-body: nothing more will arrive.
			f.Close()
			return io.ErrUnexpectedEOF
		}
		if err := f.Close(); err != nil {
			return ss.respondErr(bw, err)
		}
		return respondCode(bw, req.Length)
	}
	bp := vfs.GetWindow(req.Length)
	defer vfs.PutBuf(bp)
	buf := *bp
	var off int64
	for off < req.Length {
		if ss.deadlineLapsed() {
			// The sender's own timeout already fired; don't spend disk
			// writes on a transfer nobody will acknowledge.
			f.Close()
			return ss.abortStream()
		}
		want := int64(len(buf))
		if req.Length-off < want {
			want = req.Length - off
		}
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			f.Close()
			return err
		}
		if err := vfs.WriteAll(f, buf[:want], off); err != nil {
			f.Close()
			io.CopyN(io.Discard, br, req.Length-off-want)
			return ss.respondErr(bw, err)
		}
		off += want
		ss.srv.Stats.BytesWriten.Add(want)
	}
	if err := f.Close(); err != nil {
		return ss.respondErr(bw, err)
	}
	return respondCode(bw, req.Length)
}

func (ss *session) handleTruncate(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if req.Size < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		return ss.respondErr(bw, err)
	}
	err := ss.srv.fs.Truncate(path, req.Size)
	if err == nil {
		ss.srv.breakLeases(path)
	}
	return ss.respondErr(bw, err)
}

func (ss *session) handleChmod(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		return ss.respondErr(bw, err)
	}
	err := ss.srv.fs.Chmod(path, uint32(req.Mode))
	if err == nil {
		ss.srv.breakLeases(path)
	}
	return ss.respondErr(bw, err)
}

func (ss *session) handleGetacl(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	list, err := ss.srv.effectiveACL(path, false)
	if err == nil && !list.Allows(string(ss.subject), acl.L) {
		err = vfs.EACCES
	}
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if err := respondCode(bw, int64(len(list.Entries))); err != nil {
		return err
	}
	for _, e := range list.Entries {
		if _, err := fmt.Fprintf(bw, "%s\n", e.String()); err != nil {
			return err
		}
	}
	return nil
}

func (ss *session) handleSetacl(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkDir(ss.subject, path, acl.A); err != nil {
		return ss.respondErr(bw, err)
	}
	rights, reserve, err := acl.ParseSpec(req.Rights)
	if err != nil {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	ss.srv.aclMu.Lock()
	defer ss.srv.aclMu.Unlock()
	list, err := ss.srv.effectiveACL(path, true)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	list = list.Clone()
	list.Set(req.Subject, rights, reserve)
	err = ss.srv.writeACL(path, list)
	if err == nil {
		// A caching client must learn that rights on the directory changed.
		ss.srv.breakLeases(path)
	}
	return ss.respondErr(bw, err)
}

func (ss *session) handleWhoami(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	_, err := fmt.Fprintf(bw, "%s\n", proto.Escape(string(ss.subject)))
	return err
}

func (ss *session) handleStatfs(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	info, err := ss.srv.fs.StatFS()
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	_, err = fmt.Fprintf(bw, "%d %d\n", info.TotalBytes, info.FreeBytes)
	return err
}

// Report is the server's catalog report (§4): who it is, its capacity
// and root ACL, and its load from Stats. Addr is the advertised name; a
// server that knows its listener address overrides it.
func (s *Server) Report() catalog.Report {
	r := catalog.Report{
		Name:         s.cfg.Name,
		Addr:         s.cfg.Name,
		Owner:        string(s.cfg.Owner),
		Connections:  s.Stats.Connections.Load(),
		Requests:     s.Stats.Requests.Load(),
		BytesRead:    s.Stats.BytesRead.Load(),
		BytesWritten: s.Stats.BytesWriten.Load(),
	}
	if info, err := s.fs.StatFS(); err == nil {
		r.TotalBytes, r.FreeBytes = info.TotalBytes, info.FreeBytes
	}
	if list, err := s.effectiveACL("/", false); err == nil {
		r.RootACL = strings.TrimRight(string(list.Encode()), "\n")
	}
	return r
}
