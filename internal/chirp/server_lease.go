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
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// DefaultLeaseTTL bounds how long a client may trust cached data
// without revalidation when ServerConfig.LeaseTTL is zero. Short by
// design: a partitioned cache holder goes stale for at most this long.
const DefaultLeaseTTL = 2 * time.Second

// leaseEntry is one outstanding read lease. The entries form a list in
// grant order (older, newer): the TTL is one constant, so that is expiry
// order too, and the oldest grant is the only one a grant has to look at
// to find what has lapsed.
type leaseEntry struct {
	id      int64
	path    string
	subject auth.Subject
	expiry  time.Time
	// owner is the granting session's ledger; drop takes the ID out of
	// it whichever connection, write or clock ended the lease.
	owner        *leaseLedger
	older, newer *leaseEntry
}

// leaseLedger is the set of live grants made on one session, released
// at disconnect like descriptors. The table keeps it (under its own
// lock): a lease leaves the ledger the moment it leaves the table, so
// the ledger is never more than the session's live grants.
type leaseLedger struct {
	ids map[int64]struct{}
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
	// oldest and newest are the ends of the grant-order list.
	oldest, newest *leaseEntry
	// visited counts the entries grant examined for expiry, the cost
	// TestLeaseGrantCostIsFlat bounds.
	visited int64
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

// grant issues a lease on path to subject and records it in owner. It
// first drops the grants that expired since the previous one, from the
// old end of the list, so a grant costs O(1 + those) however many
// leases are live.
func (t *leaseTable) grant(path string, subject auth.Subject, owner *leaseLedger) (id, version int64, ttl time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for e := t.oldest; e != nil; e = t.oldest {
		t.visited++
		if !now.After(e.expiry) {
			break
		}
		t.drop(e)
	}
	t.nextID++
	e := &leaseEntry{id: t.nextID, path: path, subject: subject, expiry: now.Add(t.ttl), owner: owner, older: t.newest}
	if t.newest != nil {
		t.newest.newer = e
	} else {
		t.oldest = e
	}
	t.newest = e
	t.byID[e.id] = e
	if t.byPath[path] == nil {
		t.byPath[path] = make(map[int64]*leaseEntry)
	}
	t.byPath[path][e.id] = e
	if owner.ids == nil {
		owner.ids = make(map[int64]struct{})
	}
	owner.ids[e.id] = struct{}{}
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
func (t *leaseTable) releaseOwned(owner *leaseLedger) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range owner.ids {
		t.drop(t.byID[id])
	}
}

// drop removes e from the indexes, the grant-order list and its
// session's ledger. Caller holds t.mu.
func (t *leaseTable) drop(e *leaseEntry) {
	delete(t.byID, e.id)
	if m := t.byPath[e.path]; m != nil {
		delete(m, e.id)
		if len(m) == 0 {
			delete(t.byPath, e.path)
		}
	}
	delete(e.owner.ids, e.id)
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		t.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		t.newest = e.older
	}
	e.older, e.newer = nil, nil
}

// bump records a conflicting mutation of path: the version advances
// (from the global counter) and every outstanding lease on the path is
// broken. It returns how many unexpired leases were broken, for the
// chirp_server.lease_breaks counter.
func (t *leaseTable) bump(path string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bumpLocked(path, now)
}

func (t *leaseTable) bumpLocked(path string, now time.Time) int {
	t.nextVer++
	if _, told := t.version[path]; told {
		t.version[path] = t.nextVer
	}
	broken := 0
	for _, e := range t.byPath[path] {
		if !now.After(e.expiry) {
			broken++
		}
		t.drop(e)
	}
	return broken
}

// bumpTree records that everything beneath dir moved (a directory was
// renamed from or onto it): every path there that somebody was told a
// version of gets a new one and loses its leases. A holder of "/d/f"
// must not revalidate it after "/d" was renamed away, and a holder of
// "no /e/f" must not after "/d" arrived at "/e". It walks the told
// versions, which a directory rename is rare enough to afford.
func (t *leaseTable) bumpTree(dir string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	broken := 0
	for p := range t.version {
		if pathutil.Within(dir, p) {
			broken += t.bumpLocked(p, now)
		}
	}
	return broken
}

// breakLeases is the mutation hook: every handler that changes a
// path's data, attributes, or its directory's entry list calls it with
// the affected paths before acknowledging the write, so no client can
// revalidate stale data after the server accepted a conflicting
// mutation.
func (s *Server) breakLeases(paths ...string) {
	for _, p := range paths {
		s.countBreaks(s.leases.bump(p))
	}
}

// breakLeaseTrees is breakLeases for a renamed directory: everything
// beneath each of dirs.
func (s *Server) breakLeaseTrees(dirs ...string) {
	for _, d := range dirs {
		s.countBreaks(s.leases.bumpTree(d))
	}
}

func (s *Server) countBreaks(n int) {
	if n > 0 {
		s.Stats.LeaseBreaks.Add(int64(n))
		s.mLeaseBreaks.Add(int64(n))
	}
}

func (ss *session) handleLease(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	// The same bar as stat: a lease only reveals that something about
	// the path changed, which is metadata visibility.
	if err := ss.srv.checkParent(ss.subject, path, acl.L); err != nil {
		return ss.respondErr(bw, err)
	}
	id, version, ttl := ss.srv.leases.grant(path, ss.subject, &ss.leases)
	ss.srv.Stats.LeaseGrants.Add(1)
	ss.srv.mLeaseGrants.Inc()
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	_, err := fmt.Fprintf(bw, "%d %d %d\n", id, ttl.Milliseconds(), version)
	return err
}

func (ss *session) handleLeasebreak(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	return ss.respondErr(bw, ss.srv.leases.release(req.FD, ss.subject))
}
