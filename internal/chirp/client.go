package chirp

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// ClientConfig configures a Chirp client.
type ClientConfig struct {
	// Dial establishes the transport connection. Required.
	Dial func() (net.Conn, error)
	// Credentials are offered in order during authentication.
	Credentials []auth.Credential
	// Timeout bounds each RPC round trip (0 = none).
	Timeout time.Duration
	// Metrics, when non-nil, receives round-trip latency histograms
	// ("chirp_client.rpc.<verb>") and reconnect/error counters. Nil
	// disables instrumentation at zero cost.
	Metrics *obs.Registry
	// PoolSize is the most connections the client keeps open to the
	// server (default 1). Dial opens the first; the rest are dialed
	// lazily, when every open one is busy.
	PoolSize int
	// Verify enables end-to-end digest verification of whole-file
	// transfers: GetFile/PutFile use the getfilesum/putfilesum verbs,
	// which carry a digest trailer the receiving side checks. A server
	// that predates the verbs answers EINVAL before any data phase; the
	// client then falls back to the plain verbs and remembers, so old
	// peers interoperate at the cost of one probe round trip.
	Verify bool
}

// Client speaks the Chirp protocol to one file server over up to
// PoolSize connections. It implements vfs.FileSystem, making a remote
// server interchangeable with a local directory — the recursive storage
// abstraction of §3 — and every abstraction above it inherits the
// connection parallelism unchanged.
//
// The protocol serializes requests on a connection, so a Client keeps
// a list of them:
//
//   - Stateless RPCs (stat, getdir, unlink, getfile, putfile, ...) go to
//     the least-loaded connection, dialing a new one lazily while the
//     list may still grow and the server is not pushing back.
//   - Descriptor RPCs (pread, pwrite, fstat, ftruncate, fsync, close)
//     are pinned to the connection that performed the open: Chirp
//     descriptors are connection-scoped (§4), so affinity is a
//     correctness requirement, not an optimization. The open itself is
//     a least-loaded placement choice.
//
// Failure isolation is per connection: each keeps its own generation
// fence, so a connection dropping mid-read invalidates only the
// descriptors opened on it (they return ENOTCONN) while I/O on the
// others proceeds undisturbed. Reconnect repairs exactly the dead
// connections. A Client is safe for concurrent use.
type Client struct {
	cfg  ClientConfig
	size int

	// Per-verb round-trip histograms and connection-health counters,
	// pre-resolved at Dial; all nil without a registry.
	rpcHist     map[string]*obs.Histogram
	mRPCErrors  *obs.Counter
	mReconnects *obs.Counter

	// refused is the proto.Feature mask of verb groups the server
	// answered EINVAL to: it predates them, so the client stops probing
	// and takes each group's fallback (plain transfers, TTL-only caching,
	// no deadline prefix) until the next Reconnect. Every connection
	// speaks to the same server, so one memo serves them all.
	refused atomic.Uint32

	mu      sync.Mutex
	members []*conn
	dialing int // connections being dialed outside the lock, counted toward size
	closed  bool

	// pushbackUntil marks the end of the server's pushback window: an
	// RPC answered EAGAIN, meaning the server is shedding load
	// (DESIGN.md §15). While the window is open the client stops
	// growing — dialing extra connections at a server that just asked
	// for room would convert its pushback into more offered load.
	// Existing connections keep serving.
	pushbackUntil time.Time
}

// Pool is Client. It exists only because the benchmark (benchmark/)
// still names it; ROADMAP item 5a deletes it.
type Pool = Client

// NewPool is Dial, kept on the same terms as Pool.
func NewPool(cfg ClientConfig) (*Client, error) { return Dial(cfg) }

// poolPushbackWindow is how long one EAGAIN suppresses lazy growth.
// Matches the order of a retry backoff, so the client does not expand
// in the middle of the very burst being shed.
const poolPushbackWindow = time.Second

// conn is one authenticated connection: the socket and its buffered
// halves, owned by mu for a whole round trip, and the generation that
// fences the descriptors opened on it.
type conn struct {
	mu      sync.Mutex
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	subject auth.Subject
	gen     uint64 // bumped by every dial and every failure

	// connected mirrors nc != nil without taking mu. The dispatcher
	// consults liveness on every acquire; going through mu would block
	// behind whatever RPC currently holds the connection.
	connected atomic.Bool

	// Placement load, guarded by Client.mu.
	inflight int // RPCs currently dispatched on this connection
	openFDs  int // live descriptors pinned to it
}

var (
	_ vfs.FileSystem  = (*Client)(nil)
	_ vfs.Closer      = (*Client)(nil)
	_ vfs.Reconnector = (*Client)(nil)
	_ vfs.FileGetter  = (*Client)(nil)
	_ vfs.FilePutter  = (*Client)(nil)
	_ vfs.OpenStater  = (*Client)(nil)
	_ vfs.Checksummer = (*Client)(nil)
	_ vfs.PartGetter  = (*Client)(nil)
	_ vfs.PartPutter  = (*Client)(nil)
	_ vfs.Leaser      = (*Client)(nil)
)

// Dial connects and authenticates the client's first connection.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("chirp: ClientConfig.Dial is required")
	}
	c := &Client{cfg: cfg, size: max(cfg.PoolSize, 1)}
	if reg := cfg.Metrics; reg != nil {
		c.rpcHist = make(map[string]*obs.Histogram, len(proto.Verbs))
		for _, v := range proto.Verbs {
			c.rpcHist[v.Name] = reg.Histogram("chirp_client.rpc." + v.Name)
		}
		c.mRPCErrors = reg.Counter("chirp_client.rpc_errors")
		c.mReconnects = reg.Counter("chirp_client.reconnects")
	}
	cn := new(conn)
	if err := c.connect(cn); err != nil {
		return nil, err
	}
	c.members = []*conn{cn}
	return c, nil
}

// DialTCP is a convenience for connecting over TCP.
func DialTCP(addr string, creds []auth.Credential, timeout time.Duration) (*Client, error) {
	return Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		},
		Credentials: creds,
		Timeout:     timeout,
	})
}

// connect dials cn and runs the authentication dialog on it. A
// connection found live (repaired meanwhile by another caller) is left
// alone.
func (c *Client) connect(cn *conn) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.nc != nil {
		return nil
	}
	nc, err := c.cfg.Dial()
	if err != nil {
		return vfs.ENOTCONN
	}
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	//lint:ignore lockheld cn.mu owns the connection being established; the auth dialog must finish before any RPC may use it
	subject, err := auth.Login(br, flushWriter{bw}, c.cfg.Credentials...)
	if err != nil {
		nc.Close()
		return fmt.Errorf("chirp: authentication: %w", err)
	}
	cn.nc, cn.br, cn.bw, cn.subject = nc, br, bw, subject
	cn.connected.Store(true)
	cn.gen++
	if cn.gen > 1 {
		// The first connection is a dial; everything after is a repair.
		c.mReconnects.Inc()
	}
	return nil
}

// alive reports whether cn holds a live connection. It reads the
// mirror flag rather than taking mu, which an in-flight RPC holds for
// its full round trip.
func (cn *conn) alive() bool { return cn.connected.Load() }

// close tears the connection down; the server releases its state.
func (cn *conn) close() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.nc == nil {
		return nil
	}
	err := cn.nc.Close()
	cn.nc = nil
	cn.connected.Store(false)
	return err
}

// fail abandons the connection after a transport error and fences
// every descriptor opened on it, so stale fds fail fast instead of
// being replayed against a future connection. The returned errno keeps
// the §6 failure vocabulary: an expired RPC deadline is ETIMEDOUT,
// everything else ENOTCONN. Caller holds cn.mu.
func (cn *conn) fail(err error) vfs.Errno {
	// Clear the per-RPC deadline before abandoning: the net.Conn may be
	// shared with in-flight readers that should see the close, not a
	// stale deadline error.
	cn.nc.SetDeadline(time.Time{})
	cn.nc.Close()
	cn.nc = nil
	cn.connected.Store(false)
	cn.gen++
	if vfs.AsErrno(err) == vfs.ETIMEDOUT {
		return vfs.ETIMEDOUT
	}
	return vfs.ENOTCONN
}

// loadOf is the placement cost of a connection: RPCs in flight plus
// the descriptors pinned to it (each predicts future descriptor RPCs
// that have no choice of connection).
func loadOf(cn *conn) int { return cn.inflight + cn.openFDs }

// leastLoadedLocked returns the best dispatch target, preferring live
// connections; a dead one is returned only when nothing is alive, so
// the caller surfaces ENOTCONN and the recovery protocol takes over.
// Caller holds c.mu.
func (c *Client) leastLoadedLocked() *conn {
	var best, bestDead *conn
	for _, cn := range c.members {
		if !cn.alive() {
			if bestDead == nil || loadOf(cn) < loadOf(bestDead) {
				bestDead = cn
			}
			continue
		}
		if best == nil || loadOf(cn) < loadOf(best) {
			best = cn
		}
	}
	if best == nil {
		return bestDead
	}
	return best
}

// acquire reserves a connection for one RPC: the least-loaded one, or
// a lazily dialed new one when every connection is busy and the client
// may still grow. The dial happens outside the lock so dispatch never
// blocks behind connection setup.
func (c *Client) acquire() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, vfs.ENOTCONN
	}
	best := c.leastLoadedLocked()
	if best != nil && loadOf(best) == 0 && best.alive() {
		best.inflight++
		c.mu.Unlock()
		return best, nil
	}
	if len(c.members)+c.dialing < c.size && time.Now().After(c.pushbackUntil) {
		c.dialing++
		c.mu.Unlock()
		cn := new(conn)
		err := c.connect(cn)
		c.mu.Lock()
		c.dialing--
		if err == nil {
			if c.closed {
				c.mu.Unlock()
				cn.close()
				return nil, vfs.ENOTCONN
			}
			cn.inflight = 1
			c.members = append(c.members, cn)
			c.mu.Unlock()
			return cn, nil
		}
		// The dial failed; share the least-loaded existing connection.
		best = c.leastLoadedLocked()
	}
	if best == nil {
		c.mu.Unlock()
		return nil, vfs.ENOTCONN
	}
	best.inflight++
	c.mu.Unlock()
	return best, nil
}

// release returns a connection after one RPC.
func (c *Client) release(cn *conn) {
	c.mu.Lock()
	cn.inflight--
	c.mu.Unlock()
}

// notePushback opens the pushback window when an RPC was answered with
// EAGAIN: the server is shedding, so the client must not grow into it.
func (c *Client) notePushback(err error) {
	if vfs.AsErrno(err) != vfs.EAGAIN {
		return
	}
	c.mu.Lock()
	c.pushbackUntil = time.Now().Add(poolPushbackWindow)
	c.mu.Unlock()
}

// Conns reports the number of live connections.
func (c *Client) Conns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cn := range c.members {
		if cn.alive() {
			n++
		}
	}
	return n
}

// Subject returns the subject granted at authentication.
func (c *Client) Subject() auth.Subject {
	c.mu.Lock()
	cn := c.members[0]
	c.mu.Unlock()
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.subject
}

// Reconnect repairs exactly the dead connections, leaving live ones —
// and the descriptors pinned to them — alone (vfs.Reconnector). It
// also forgets what the server refused: the peer may have been
// upgraded, so the next RPC of each feature group probes afresh.
// Descriptors opened on a repaired connection stay fenced with
// ENOTCONN; the adapter layer is responsible for re-opening them. A
// closed client is reopened the same way.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	c.closed = false
	members := slices.Clone(c.members)
	c.mu.Unlock()
	c.refused.Store(0)
	var firstErr error
	for _, cn := range members {
		if cn.alive() {
			continue
		}
		if err := c.connect(cn); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close tears down every connection; the server releases all
// per-connection state. RPCs fail with ENOTCONN until Reconnect.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	members := slices.Clone(c.members)
	c.mu.Unlock()
	var firstErr error
	for _, cn := range members {
		if err := cn.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// observeRPC times one round trip into the per-verb histogram and
// counts failures. No-op when metrics are disabled, and for a verb
// outside proto.Verbs — AppendTo refuses to send one.
func (c *Client) observeRPC(verb string, start time.Time, err error) {
	if c.rpcHist == nil {
		return
	}
	c.rpcHist[verb].Observe(time.Since(start))
	if err != nil {
		c.mRPCErrors.Inc()
	}
}

// supports reports whether the server is still believed to speak
// feature group f.
func (c *Client) supports(f proto.Feature) bool {
	return c.refused.Load()&f.Bit() == 0
}

// refuse memoizes that the server predates feature group f.
func (c *Client) refuse(f proto.Feature) {
	for {
		old := c.refused.Load()
		if c.refused.CompareAndSwap(old, old|f.Bit()) {
			return
		}
	}
}

// legacyRefusal reports whether err is how a server that predates a
// verb answers it: EINVAL before any data phase, the stream in sync.
// A supporting server can answer EINVAL too (a genuinely bad argument),
// so callers with a plain-verb fallback memoize only once it succeeds.
func legacyRefusal(err error) bool {
	return vfs.AsErrno(err) == vfs.EINVAL && !errors.Is(err, vfs.ErrIntegrity)
}

// lineBufPool recycles request-line encoding buffers across RPCs and
// clients, so encoding a request allocates nothing in steady state.
var lineBufPool sync.Pool

func getLineBuf() *[]byte {
	v, _ := lineBufPool.Get().(*[]byte)
	if v == nil {
		v = new([]byte)
	}
	return v
}

func putLineBuf(v *[]byte) { lineBufPool.Put(v) }

// appendDeadlinePrefix encodes the pipelined "deadline <remaining_ms>"
// prefix ahead of a request line, exporting the client's RPC timeout to
// the server so work whose waiter has already given up is shed instead
// of served (DESIGN.md §15). The budget is relative milliseconds, so
// clock skew does not shift it. Returns the extended buffer and whether
// the prefix was added — the caller then reads one extra status line.
// No prefix is sent without a timeout, or once the server is known to
// predate the verb.
func (c *Client) appendDeadlinePrefix(dst []byte) ([]byte, bool) {
	if c.cfg.Timeout <= 0 || !c.supports(proto.Deadline) {
		return dst, false
	}
	ms := c.cfg.Timeout.Milliseconds()
	if ms <= 0 {
		ms = 1
	}
	out, err := (&proto.Request{Verb: "deadline", Budget: ms}).AppendTo(dst)
	if err != nil {
		return dst, false
	}
	return append(out, '\n'), true
}

// readDeadlineCode consumes the status line the deadline prefix earned.
// The verb has no data phase, so any refusal arrives with the stream in
// sync and the governed request proceeds regardless; EINVAL from an old
// server is memoized so the client stops probing. Caller holds cn.mu.
func (c *Client) readDeadlineCode(cn *conn) error {
	code, err := proto.ReadCode(cn.br)
	if err != nil {
		return err
	}
	if vfs.FromCode(int(code)) == vfs.EINVAL {
		c.refuse(proto.Deadline)
	}
	return nil
}

// roundTrip is the one request writer. It times the RPC into its
// verb's histogram, encodes req behind the deadline prefix, and then
// owns cn for the whole exchange: it checks that cn is live and, for a
// descriptor RPC, still of generation gen (0: any), arms the RPC
// timeout and buffers the line. exchange runs under the same lock — the
// protocol serializes RPCs on a connection — to flush, stream any body
// and read the answer; deadline says a prefix went out whose status
// line comes back first. An error exchange returns is the transport's
// and costs the connection; a negative status is the server's answer.
func (c *Client) roundTrip(cn *conn, gen uint64, req *proto.Request, exchange func(deadline bool) (int64, error)) (_ int64, rpcErr error) {
	if c.rpcHist != nil {
		defer func(start time.Time) { c.observeRPC(req.Verb, start, rpcErr) }(time.Now())
	}
	lb := getLineBuf()
	defer putLineBuf(lb)
	line, withDeadline := c.appendDeadlinePrefix((*lb)[:0])
	line, err := req.AppendTo(line)
	if err != nil {
		return 0, vfs.EINVAL
	}
	line = append(line, '\n')
	*lb = line
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.nc == nil || gen != 0 && gen != cn.gen {
		return 0, vfs.ENOTCONN
	}
	if c.cfg.Timeout > 0 {
		cn.nc.SetDeadline(time.Now().Add(c.cfg.Timeout))
	}
	if _, err := cn.bw.Write(line); err != nil {
		return 0, cn.fail(err)
	}
	code, err := exchange(withDeadline)
	if err != nil {
		return 0, cn.fail(err)
	}
	if code < 0 {
		return 0, vfs.FromCode(int(code))
	}
	return code, nil
}

// rpc sends one stateless request on the least-loaded connection.
// payload, when non-nil, is sent after the request line. The handler,
// when non-nil, consumes any post-status response body; it runs with
// the connection held and must fully drain the body.
func (c *Client) rpc(req *proto.Request, payload []byte, handler func(code int64, br *bufio.Reader) error) (int64, error) {
	cn, err := c.acquire()
	if err != nil {
		return 0, err
	}
	code, err := c.rpcOn(cn, 0, req, payload, handler)
	c.release(cn)
	c.notePushback(err)
	return code, err
}

// rpcOn is rpc on a chosen connection, fenced by gen as roundTrip is.
func (c *Client) rpcOn(cn *conn, gen uint64, req *proto.Request, payload []byte, handler func(code int64, br *bufio.Reader) error) (int64, error) {
	return c.roundTrip(cn, gen, req, func(deadline bool) (int64, error) {
		if payload != nil {
			if _, err := cn.bw.Write(payload); err != nil {
				return 0, err
			}
		}
		if err := cn.bw.Flush(); err != nil {
			return 0, err
		}
		if deadline {
			if err := c.readDeadlineCode(cn); err != nil {
				return 0, err
			}
		}
		code, err := proto.ReadCode(cn.br)
		if err == nil && handler != nil {
			err = handler(code, cn.br)
		}
		return code, err
	})
}

// Open opens the named file on the server.
func (c *Client) Open(path string, flags int, mode uint32) (vfs.File, error) {
	f, _, err := c.OpenStat(path, flags, mode)
	return f, err
}

// OpenStat opens the named file on the least-loaded connection and
// returns its metadata from the same round trip — the open response
// carries a stat line, so the adapter's inode bookkeeping costs nothing
// extra (vfs.OpenStater). Every later RPC on the descriptor is pinned
// to that connection.
func (c *Client) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	cn, err := c.acquire()
	if err != nil {
		return nil, vfs.FileInfo{}, err
	}
	var fi vfs.FileInfo
	var gen uint64
	fd, err := c.rpcOn(cn, 0, &proto.Request{Verb: "open", Path: path, Flags: int64(flags), Mode: int64(mode)}, nil,
		func(code int64, br *bufio.Reader) error {
			if code < 0 {
				return nil
			}
			gen = cn.gen // the handler runs under cn.mu
			line, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			fi, err = proto.UnmarshalStat(line)
			return err
		})
	c.mu.Lock()
	cn.inflight--
	if err == nil {
		cn.openFDs++
	}
	c.mu.Unlock()
	if err != nil {
		c.notePushback(err)
		return nil, fi, err
	}
	return &remoteFile{c: c, cn: cn, fd: fd, gen: gen}, fi, nil
}

// Stat returns metadata for the named file.
func (c *Client) Stat(path string) (vfs.FileInfo, error) {
	var fi vfs.FileInfo
	_, err := c.rpc(&proto.Request{Verb: "stat", Path: path}, nil, func(code int64, br *bufio.Reader) error {
		if code < 0 {
			return nil
		}
		line, err := proto.ReadLine(br)
		if err != nil {
			return err
		}
		fi, err = proto.UnmarshalStat(line)
		return err
	})
	return fi, err
}

// Unlink removes the named file.
func (c *Client) Unlink(path string) error {
	_, err := c.rpc(&proto.Request{Verb: "unlink", Path: path}, nil, nil)
	return err
}

// Rename renames a file or directory.
func (c *Client) Rename(oldPath, newPath string) error {
	_, err := c.rpc(&proto.Request{Verb: "rename", Path: oldPath, Path2: newPath}, nil, nil)
	return err
}

// Mkdir creates a directory; in a directory where the caller holds
// only the V right this performs the reservation of §4.
func (c *Client) Mkdir(path string, mode uint32) error {
	_, err := c.rpc(&proto.Request{Verb: "mkdir", Path: path, Mode: int64(mode)}, nil, nil)
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(path string) error {
	_, err := c.rpc(&proto.Request{Verb: "rmdir", Path: path}, nil, nil)
	return err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	_, err := c.rpc(&proto.Request{Verb: "getdir", Path: path}, nil, func(code int64, br *bufio.Reader) (err error) {
		ents, err = proto.ReadDirEntries(br, code)
		return err
	})
	return ents, err
}

// Truncate changes the length of the named file.
func (c *Client) Truncate(path string, size int64) error {
	_, err := c.rpc(&proto.Request{Verb: "truncate", Path: path, Size: size}, nil, nil)
	return err
}

// Chmod changes permission bits of the named file.
func (c *Client) Chmod(path string, mode uint32) error {
	_, err := c.rpc(&proto.Request{Verb: "chmod", Path: path, Mode: int64(mode)}, nil, nil)
	return err
}

// StatFS reports server capacity.
func (c *Client) StatFS() (vfs.FSInfo, error) {
	var info vfs.FSInfo
	_, err := c.rpc(&proto.Request{Verb: "statfs"}, nil, func(code int64, br *bufio.Reader) error {
		if code < 0 {
			return nil
		}
		line, err := proto.ReadLine(br)
		if err != nil {
			return err
		}
		_, err = fmt.Sscanf(string(line), "%d %d", &info.TotalBytes, &info.FreeBytes)
		return err
	})
	return info, err
}

// Whoami asks the server which subject this session authenticated as.
func (c *Client) Whoami() (auth.Subject, error) {
	var s auth.Subject
	_, err := c.rpc(&proto.Request{Verb: "whoami"}, nil, func(code int64, br *bufio.Reader) error {
		if code < 0 {
			return nil
		}
		line, err := proto.ReadLine(br)
		if err != nil {
			return err
		}
		u, err := proto.Unescape(string(line))
		s = auth.Subject(u)
		return err
	})
	return s, err
}

// GetACL fetches the effective ACL of a directory, one entry per line.
func (c *Client) GetACL(path string) ([]string, error) {
	var lines []string
	_, err := c.rpc(&proto.Request{Verb: "getacl", Path: path}, nil, func(code int64, br *bufio.Reader) error {
		for i := int64(0); i < code; i++ {
			line, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			lines = append(lines, string(line))
		}
		return nil
	})
	return lines, err
}

// SetACL grants subject the given rights spec (e.g. "rwl", "v(rwla)",
// "n" to revoke) on a directory.
func (c *Client) SetACL(path, subject, rights string) error {
	_, err := c.rpc(&proto.Request{Verb: "setacl", Path: path, Subject: subject, Rights: rights}, nil, nil)
	return err
}

// bodyRecv receives the body of one getfile, getfilesum or getpart
// response: the bytes stream socket → pooled window → w, folded into h
// on the way when there is one, and the digest trailer behind them is
// then checked against it.
//
// A failure of w is not a failure of the connection. The rest of the
// body and the trailer are still read, so the stream stays framed, and
// the sink's own error is reported in err with the connection — and
// every descriptor open on it — left alone: a full local disk is
// ENOSPC, not ENOTCONN.
type bodyRecv struct {
	verb, path string
	off        int64 // getpart only: where the chunk starts, for messages
	w          io.Writer
	h          hash.Hash // non-nil: a digest trailer of algo follows the body
	algo       string

	copied    int64  // bytes w accepted
	sum       string // the verified digest, lowercase hex
	err       error  // what w, or the digest check, failed with
	inTrailer bool   // the body arrived whole; the trailer was being read
}

// name is what the messages call the body: the path, and for a chunk
// its offset.
func (b *bodyRecv) name() string {
	if b.verb == "getpart" {
		return fmt.Sprintf("%s@%d", b.path, b.off)
	}
	return b.path
}

// handle is the rpc body handler. The error it returns is the
// socket's, which costs the connection; everything else lands in b.err.
func (b *bodyRecv) handle(code int64, br *bufio.Reader) error {
	if code < 0 {
		return nil
	}
	bp := vfs.GetWindow(code)
	defer vfs.PutBuf(bp)
	buf := *bp
	for left := code; left > 0; {
		n, err := io.ReadFull(br, buf[:min(int64(len(buf)), left)])
		if err != nil {
			return err
		}
		left -= int64(n)
		if b.h != nil {
			b.h.Write(buf[:n])
		}
		if b.err == nil {
			var m int
			m, b.err = b.w.Write(buf[:n])
			b.copied += int64(m)
		}
	}
	if b.h == nil {
		return nil
	}
	b.inTrailer = true
	line, err := proto.ReadLine(br)
	if err != nil {
		return err
	}
	if b.err != nil {
		return nil
	}
	a, raw, perr := proto.ParseDigestTrailer(line)
	if perr != nil || a != b.algo {
		b.err = fmt.Errorf("chirp: %s %s: malformed digest trailer: %w",
			b.verb, b.name(), errors.Join(vfs.EIO, vfs.ErrIntegrity))
	} else if got := b.h.Sum(nil); !bytes.Equal(raw, got) {
		b.err = vfs.ChecksumMismatch(b.name(), a, hex.EncodeToString(raw), hex.EncodeToString(got))
	} else {
		b.sum = hex.EncodeToString(raw)
	}
	return nil
}

// receive sends req and streams the response body through b. It
// returns what rpc returns — the server's refusal or a lost connection
// — so a caller can tell a refusal that arrived before the data phase
// from anything the sink did; result folds the two into one answer.
func (c *Client) receive(req *proto.Request, b *bodyRecv) error {
	// Copied, not pointed at: req can then stay on its caller's stack.
	b.verb, b.path, b.off, b.algo = req.Verb, req.Path, req.Offset, req.Algo
	_, err := c.rpc(req, nil, b.handle)
	return err
}

// result is the (bytes, error) a receive path returns, given what
// receive returned.
func (b *bodyRecv) result(rpcErr error) (int64, error) {
	if rpcErr != nil && b.inTrailer {
		// The body arrived whole but its digest trailer did not: the
		// bytes cannot be trusted and the connection is gone.
		return b.copied, fmt.Errorf("chirp: %s %s: short digest trailer: %w",
			b.verb, b.name(), errors.Join(rpcErr, vfs.ErrIntegrity))
	}
	if rpcErr != nil {
		return b.copied, rpcErr
	}
	return b.copied, b.err
}

// getFilePlain streams the whole named file to w (the getfile RPC):
// one round trip regardless of size, on the same connection as
// control. GetFile (client_sum.go) routes here unless verification is
// on.
func (c *Client) getFilePlain(path string, w io.Writer) (int64, error) {
	b := bodyRecv{w: w}
	return b.result(c.receive(&proto.Request{Verb: "getfile", Path: path}, &b))
}

// putStream writes one put-style request and streams its body on the
// least-loaded connection: the shared core of putfile, putfilesum and
// putpart. For a verb declared two-phase the server answers a ready
// line before the data phase, so a refusal — notably EINVAL from a
// server that predates the verb — arrives with the stream in sync and
// not one byte consumed from r, which is what makes blind negotiation
// safe. trailer, when non-nil, appends a final protocol line after the
// body.
func (c *Client) putStream(req *proto.Request, size int64, r io.Reader, trailer func([]byte) []byte) error {
	cn, err := c.acquire()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(cn, 0, req, func(deadline bool) (int64, error) {
		if proto.Lookup(req.Verb).Body == proto.BodyTwoPhase {
			if err := cn.bw.Flush(); err != nil {
				return 0, err
			}
			if deadline {
				if err := c.readDeadlineCode(cn); err != nil {
					return 0, err
				}
				deadline = false
			}
			if ready, err := proto.ReadCode(cn.br); err != nil || ready < 0 {
				return ready, err
			}
		}
		// The body streams r → pooled window → socket, each Read
		// forwarded as it returns: a slow source keeps the server fed,
		// and a reader that hands over its last bytes together with
		// io.EOF is not asked again.
		bp := vfs.GetWindow(size)
		defer vfs.PutBuf(bp)
		buf := *bp
		for left := size; left > 0; {
			n, rerr := r.Read(buf[:min(int64(len(buf)), left)])
			left -= int64(n)
			if _, err := cn.bw.Write(buf[:n]); err != nil {
				return 0, err
			}
			if rerr != nil && left > 0 {
				// The promised body cannot be completed: the stream is lost.
				return 0, rerr
			}
		}
		if trailer != nil {
			if _, err := cn.bw.Write(trailer(nil)); err != nil {
				return 0, err
			}
		}
		if err := cn.bw.Flush(); err != nil {
			return 0, err
		}
		if deadline {
			// One-phase put: the deadline status was pipelined behind
			// the blind body, so it is read here, ahead of the final
			// status.
			if err := c.readDeadlineCode(cn); err != nil {
				return 0, err
			}
		}
		return proto.ReadCode(cn.br)
	})
	c.release(cn)
	c.notePushback(err)
	return err
}

// putFilePlain streams size bytes from r into the named file (putfile
// RPC): one round trip regardless of size (vfs.FilePutter), symmetric
// with getFilePlain.
func (c *Client) putFilePlain(path string, mode uint32, size int64, r io.Reader) error {
	return c.putStream(&proto.Request{Verb: "putfile", Path: path, Mode: int64(mode), Length: size},
		size, r, nil)
}

// remoteFile is an open remote file, pinned to the connection that
// opened it and valid only for that connection's generation (§4: a
// descriptor is scoped to its connection). It counts toward the
// connection's placement load until closed.
type remoteFile struct {
	c        *Client
	cn       *conn
	fd       int64
	gen      uint64
	released atomic.Bool
}

// rpc sends one descriptor RPC on the owning connection; a descriptor
// whose connection failed or was replaced answers ENOTCONN.
func (f *remoteFile) rpc(req *proto.Request, payload []byte, handler func(code int64, br *bufio.Reader) error) (int64, error) {
	return f.c.rpcOn(f.cn, f.gen, req, payload, handler)
}

func (f *remoteFile) Pread(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := min(len(p)-total, proto.MaxIOSize)
		var got int64
		_, err := f.rpc(&proto.Request{Verb: "pread", FD: f.fd, Length: int64(chunk), Offset: off + int64(total)}, nil,
			func(code int64, br *bufio.Reader) error {
				if code < 0 {
					return nil
				}
				got = code
				_, err := io.ReadFull(br, p[total:total+int(code)])
				return err
			})
		if err != nil {
			return total, err
		}
		if got == 0 {
			break // EOF
		}
		total += int(got)
		if got < int64(chunk) {
			break
		}
	}
	return total, nil
}

func (f *remoteFile) Pwrite(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := min(len(p)-total, proto.MaxIOSize)
		n, err := f.rpc(&proto.Request{Verb: "pwrite", FD: f.fd, Length: int64(chunk), Offset: off + int64(total)},
			p[total:total+chunk], nil)
		if err != nil {
			return total, err
		}
		total += int(n)
		if int(n) < chunk {
			break
		}
	}
	return total, nil
}

func (f *remoteFile) Fstat() (vfs.FileInfo, error) {
	var fi vfs.FileInfo
	_, err := f.rpc(&proto.Request{Verb: "fstat", FD: f.fd}, nil, func(code int64, br *bufio.Reader) error {
		if code < 0 {
			return nil
		}
		line, err := proto.ReadLine(br)
		if err != nil {
			return err
		}
		fi, err = proto.UnmarshalStat(line)
		return err
	})
	return fi, err
}

func (f *remoteFile) Ftruncate(size int64) error {
	_, err := f.rpc(&proto.Request{Verb: "ftruncate", FD: f.fd, Size: size}, nil, nil)
	return err
}

func (f *remoteFile) Sync() error {
	_, err := f.rpc(&proto.Request{Verb: "fsync", FD: f.fd}, nil, nil)
	return err
}

// Close releases the descriptor and, exactly once however often Close
// is called, its placement load.
func (f *remoteFile) Close() error {
	_, err := f.rpc(&proto.Request{Verb: "close", FD: f.fd}, nil, nil)
	if !f.released.Swap(true) {
		f.c.mu.Lock()
		f.cn.openFDs--
		f.c.mu.Unlock()
	}
	if vfs.AsErrno(err) == vfs.ENOTCONN {
		// The connection that owned this descriptor is gone; the
		// server released it with the connection.
		return nil
	}
	return err
}
