package chirp

// Server-side read leases (DESIGN.md §14). A lease is a named promise
// that the holder may serve cached data for one path until the TTL
// elapses. The server does not push revocations: every path carries a
// version counter bumped on each conflicting mutation, the grant
// response carries the version, and a holder revalidates by leasing
// again — an unchanged version proves every cached byte and attribute
// for the path is still current. Staleness is therefore bounded by the
// TTL even across partitions, with no callback channel to lose.

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/vfs"
)

// DefaultLeaseTTL bounds how long a client may trust cached data
// without revalidation when ServerConfig.LeaseTTL is zero. Short by
// design: a partitioned cache holder goes stale for at most this long.
const DefaultLeaseTTL = 2 * time.Second

// leaseEntry is one outstanding read lease.
type leaseEntry struct {
	id      int64
	path    string
	subject auth.Subject
	expiry  time.Time
}

// leaseTable is the server's lease state: outstanding grants indexed
// by ID and by path, plus the per-path version counters that make
// renewal a cheap revalidation. A path has a counter from its first
// grant on: nobody was told a version of any other path, so its
// mutations need no record.
type leaseTable struct {
	mu      sync.Mutex
	ttl     time.Duration
	nextID  int64
	byID    map[int64]*leaseEntry
	byPath  map[string]map[int64]*leaseEntry
	version map[string]int64
	// nextVer is the global change counter versions are drawn from, so
	// a path's version never repeats even across unlink/recreate. It is
	// seeded with the boot timestamp: version state is in-memory, and a
	// restarted server must never re-issue a version number a client
	// cached before the restart — a replayed number would falsely
	// revalidate data mutated while the table was empty.
	nextVer int64
	// base is the seed itself: the version reported at a path's first
	// grant and until its next mutation. Two boots get two bases, so it
	// also never matches across a restart.
	base int64
}

func (t *leaseTable) init(ttl time.Duration) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	t.ttl = ttl
	t.byID = make(map[int64]*leaseEntry)
	t.byPath = make(map[string]map[int64]*leaseEntry)
	t.version = make(map[string]int64)
	t.base = time.Now().UnixNano()
	t.nextVer = t.base
}

// grant issues a lease on path to subject, purging that path's expired
// leases while it holds the lock.
func (t *leaseTable) grant(path string, subject auth.Subject) (id, version int64, ttl time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range t.byPath[path] {
		if now.After(e.expiry) {
			delete(t.byPath[path], id)
			delete(t.byID, id)
		}
	}
	t.nextID++
	e := &leaseEntry{id: t.nextID, path: path, subject: subject, expiry: now.Add(t.ttl)}
	t.byID[e.id] = e
	if t.byPath[path] == nil {
		t.byPath[path] = make(map[int64]*leaseEntry)
	}
	t.byPath[path][e.id] = e
	v, ok := t.version[path]
	if !ok {
		v = t.base
		t.version[path] = v
	}
	return e.id, v, t.ttl
}

// release drops one lease early. Any authenticated subject may release
// only its own leases; a pool routes the release over any member
// connection, so ownership is by subject, not by session.
func (t *leaseTable) release(id int64, subject auth.Subject) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return vfs.EBADF
	}
	if e.subject != subject {
		return vfs.EACCES
	}
	t.drop(e)
	return nil
}

// releaseOwned drops a session's remaining grants at disconnect; per
// the paper's failure semantics all per-connection state dies with the
// connection.
func (t *leaseTable) releaseOwned(ids map[int64]struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range ids {
		if e, ok := t.byID[id]; ok {
			t.drop(e)
		}
	}
}

// pruneOwned removes from ids every grant the table no longer needs:
// IDs already gone (released over another pool connection, or broken
// by a write) leave ids, and expired grants leave both ids and the
// table. Without this a long-lived connection whose renewals grant on
// it while the releases ride other pool members accumulates dead IDs
// for the connection's lifetime.
func (t *leaseTable) pruneOwned(ids map[int64]struct{}) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range ids {
		e, ok := t.byID[id]
		if !ok {
			delete(ids, id)
			continue
		}
		if now.After(e.expiry) {
			t.drop(e)
			delete(ids, id)
		}
	}
}

// drop removes e from both indexes. Caller holds t.mu.
func (t *leaseTable) drop(e *leaseEntry) {
	delete(t.byID, e.id)
	if m := t.byPath[e.path]; m != nil {
		delete(m, e.id)
		if len(m) == 0 {
			delete(t.byPath, e.path)
		}
	}
}

// bump records a conflicting mutation of path: the version advances
// (from the global counter) and every outstanding lease on the path is
// broken. It returns how many unexpired leases were broken, for the
// chirp_server.lease_breaks counter.
func (t *leaseTable) bump(path string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextVer++
	if _, told := t.version[path]; told {
		t.version[path] = t.nextVer
	}
	broken := 0
	for _, e := range t.byPath[path] {
		if !now.After(e.expiry) {
			broken++
		}
		delete(t.byID, e.id)
	}
	delete(t.byPath, path)
	return broken
}

// breakLeases is the mutation hook: every handler that changes a
// path's data, attributes, or its directory's entry list calls it with
// the affected paths before acknowledging the write, so no client can
// revalidate stale data after the server accepted a conflicting
// mutation.
func (s *Server) breakLeases(paths ...string) {
	for _, p := range paths {
		if n := s.leases.bump(p); n > 0 {
			s.Stats.LeaseBreaks.Add(int64(n))
			s.mLeaseBreaks.Add(int64(n))
		}
	}
}

func (ss *session) handleLease(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	// The same bar as stat: a lease only reveals that something about
	// the path changed, which is metadata visibility.
	if err := ss.srv.checkParent(ss.subject, path, acl.L); err != nil {
		return ss.respondErr(bw, err)
	}
	id, version, ttl := ss.srv.leases.grant(path, ss.subject)
	if ss.leases == nil {
		ss.leases = make(map[int64]struct{})
	}
	// Grant time is when this session's ledger gets trued up: IDs
	// released over other pool connections or expired since the last
	// grant are dropped, so the map tracks only live grants. The cost
	// is O(live leases), bounded by this very pruning.
	ss.srv.leases.pruneOwned(ss.leases)
	ss.leases[id] = struct{}{}
	ss.srv.Stats.LeaseGrants.Add(1)
	ss.srv.mLeaseGrants.Inc()
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	_, err := fmt.Fprintf(bw, "%d %d %d\n", id, ttl.Milliseconds(), version)
	return err
}

func (ss *session) handleLeasebreak(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	err := ss.srv.leases.release(req.FD, ss.subject)
	delete(ss.leases, req.FD)
	return ss.respondErr(bw, err)
}
