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
	// PoolSize is the maximum number of concurrently open connections a
	// NewPool transport maintains to the server (default 1). Dial
	// ignores it: a Client is always exactly one connection.
	PoolSize int
	// IdleTimeout is how long a surplus pool connection may sit idle
	// before NewPool reaps it (0 = keep forever). Dial ignores it.
	IdleTimeout time.Duration
	// Verify enables end-to-end digest verification of whole-file
	// transfers: GetFile/PutFile use the getfilesum/putfilesum verbs,
	// which carry a digest trailer the receiving side checks. A server
	// that predates the verbs answers EINVAL before any data phase; the
	// client then falls back to the plain verbs and remembers, so old
	// peers interoperate at the cost of one probe round trip.
	Verify bool
}

// Client speaks the Chirp protocol to one file server. It implements
// vfs.FileSystem, making a remote server interchangeable with a local
// directory — the recursive storage abstraction of §3.
//
// A Client is safe for concurrent use; requests are serialized on the
// single connection, exactly as the protocol requires.
type Client struct {
	cfg ClientConfig

	// Per-verb round-trip histograms and connection-health counters,
	// pre-resolved at Dial; all nil without a registry.
	rpcHist     map[string]*obs.Histogram
	mRPCErrors  *obs.Counter
	mReconnects *obs.Counter

	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	subject auth.Subject
	gen     uint64 // connection generation; stale fds are fenced by it

	// connected mirrors conn != nil without taking mu. The pool's
	// dispatcher consults liveness on every acquire; going through mu
	// would block behind whatever RPC currently holds the connection.
	connected atomic.Bool

	// refused is the proto.Feature mask of verb groups the connected
	// server answered EINVAL to: it predates them, so this client stops
	// probing and takes each group's fallback (plain transfers, TTL-only
	// caching, no deadline prefix) until the next Reconnect.
	refused atomic.Uint32
}

var (
	_ vfs.FileSystem  = (*Client)(nil)
	_ vfs.Closer      = (*Client)(nil)
	_ vfs.Reconnector = (*Client)(nil)
	_ vfs.FileGetter  = (*Client)(nil)
	_ vfs.FilePutter  = (*Client)(nil)
	_ vfs.OpenStater  = (*Client)(nil)
)

// Dial connects and authenticates a new client.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("chirp: ClientConfig.Dial is required")
	}
	c := &Client{cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		c.rpcHist = make(map[string]*obs.Histogram, len(proto.Verbs))
		for _, v := range proto.Verbs {
			c.rpcHist[v.Name] = reg.Histogram("chirp_client.rpc." + v.Name)
		}
		c.mRPCErrors = reg.Counter("chirp_client.rpc_errors")
		c.mReconnects = reg.Counter("chirp_client.reconnects")
	}
	if err := c.Reconnect(); err != nil {
		return nil, err
	}
	return c, nil
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

// supports reports whether the connected server is still believed to
// speak feature group f.
func (c *Client) supports(f proto.Feature) bool {
	return c.refused.Load()&f.Bit() == 0
}

// refuse memoizes that the connected server predates feature group f.
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

// Reconnect (re-)establishes the transport and authenticates. Any file
// descriptors from a previous connection become invalid, returning
// ENOTCONN; the adapter layer is responsible for re-opening them.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.connected.Store(false)
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		return vfs.ENOTCONN
	}
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	//lint:ignore lockheld c.mu owns the connection being replaced; the auth dialog must finish before any RPC may use it
	subject, err := auth.Login(br, clientFlushWriter{bw}, c.cfg.Credentials...)
	if err != nil {
		conn.Close()
		return fmt.Errorf("chirp: authentication: %w", err)
	}
	c.conn = conn
	c.br = br
	c.bw = bw
	c.subject = subject
	c.connected.Store(true)
	// What the previous peer refused says nothing about this one.
	c.refused.Store(0)
	c.gen++
	if c.gen > 1 {
		// The first connection is a dial; everything after is a repair.
		c.mReconnects.Inc()
	}
	return nil
}

type clientFlushWriter struct{ w *bufio.Writer }

func (f clientFlushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err == nil {
		err = f.w.Flush()
	}
	return n, err
}

// Subject returns the subject granted at authentication.
func (c *Client) Subject() auth.Subject {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subject
}

// alive reports whether the client currently holds a live connection.
// The pool consults it on every dispatch and to repair only dead
// members on Reconnect; it deliberately reads the mirror flag rather
// than taking mu, which an in-flight RPC holds for its full round trip.
func (c *Client) alive() bool {
	return c.connected.Load()
}

// Close tears down the connection; the server releases all state.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.connected.Store(false)
	return err
}

// dropLocked abandons a desynchronized or failed connection.
// Caller holds c.mu.
func (c *Client) dropLocked() {
	if c.conn != nil {
		// Clear any per-RPC deadline before abandoning: the net.Conn
		// may be shared with in-flight readers that should see the
		// close, not a stale deadline error.
		c.conn.SetDeadline(time.Time{})
		c.conn.Close()
		c.conn = nil
	}
	c.connected.Store(false)
}

// failLocked abandons the connection after a transport error and fences
// every descriptor opened on it, so stale fds fail fast instead of
// being replayed against a future connection. The returned errno keeps
// the §6 failure vocabulary: an expired RPC deadline is ETIMEDOUT,
// everything else ENOTCONN. Caller holds c.mu.
func (c *Client) failLocked(err error) vfs.Errno {
	c.dropLocked()
	c.gen++
	if vfs.AsErrno(err) == vfs.ETIMEDOUT {
		return vfs.ETIMEDOUT
	}
	return vfs.ENOTCONN
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
// server is memoized so this client stops probing. Caller holds c.mu.
func (c *Client) readDeadlineCode() error {
	code, err := proto.ReadCode(c.br)
	if err != nil {
		return err
	}
	if vfs.FromCode(int(code)) == vfs.EINVAL {
		c.refuse(proto.Deadline)
	}
	return nil
}

// rpc sends one request and reads the status line while holding the
// connection. payload, when non-nil, is sent after the request line.
// The handler, when non-nil, consumes any post-status response body;
// it runs with the lock held and must fully drain the body.
func (c *Client) rpc(req *proto.Request, payload []byte, handler func(code int64, br *bufio.Reader) error) (_ int64, rpcErr error) {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0, vfs.ENOTCONN
	}
	if c.cfg.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	}
	if _, err := c.bw.Write(line); err != nil {
		return 0, c.failLocked(err)
	}
	if payload != nil {
		if _, err := c.bw.Write(payload); err != nil {
			return 0, c.failLocked(err)
		}
	}
	//lint:ignore lockheld the protocol serializes RPCs on one connection; c.mu is the connection owner for the whole round trip
	if err := c.bw.Flush(); err != nil {
		return 0, c.failLocked(err)
	}
	if withDeadline {
		if err := c.readDeadlineCode(); err != nil {
			return 0, c.failLocked(err)
		}
	}
	//lint:ignore lockheld the response must be read under the same critical section that wrote the request
	code, err := proto.ReadCode(c.br)
	if err != nil {
		return 0, c.failLocked(err)
	}
	if handler != nil {
		if err := handler(code, c.br); err != nil {
			return 0, c.failLocked(err)
		}
	}
	if code < 0 {
		return 0, vfs.FromCode(int(code))
	}
	return code, nil
}

// Open opens the named file on the server.
func (c *Client) Open(path string, flags int, mode uint32) (vfs.File, error) {
	f, _, err := c.OpenStat(path, flags, mode)
	return f, err
}

// OpenStat opens the named file and returns its metadata from the same
// round trip — the open response carries a stat line, so the adapter's
// inode bookkeeping costs nothing extra (vfs.OpenStater).
func (c *Client) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	var fi vfs.FileInfo
	fd, err := c.rpc(&proto.Request{Verb: "open", Path: path, Flags: int64(flags), Mode: int64(mode)}, nil,
		func(code int64, br *bufio.Reader) error {
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
	if err != nil {
		return nil, fi, err
	}
	c.mu.Lock()
	gen := c.gen
	c.mu.Unlock()
	return &clientFile{c: c, fd: fd, gen: gen, name: path}, fi, nil
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
	_, err := c.rpc(&proto.Request{Verb: "getdir", Path: path}, nil, func(code int64, br *bufio.Reader) error {
		for i := int64(0); i < code; i++ {
			line, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			e, err := proto.UnmarshalDirEntry(line)
			if err != nil {
				return err
			}
			ents = append(ents, e)
		}
		return nil
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
		_, err = fmt.Sscanf(line, "%d %d", &info.TotalBytes, &info.FreeBytes)
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
		u, err := proto.Unescape(line)
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
			lines = append(lines, line)
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
// serialized connection: the shared core of putfile, putfilesum and
// putpart. For a verb declared two-phase the server answers a ready
// line before the data phase, so a refusal — notably EINVAL from a
// server that predates the verb — arrives with the stream in sync and
// not one byte consumed from r, which is what makes blind negotiation
// safe. trailer, when non-nil, appends a final protocol line after the
// body.
func (c *Client) putStream(req *proto.Request, size int64, r io.Reader, trailer func([]byte) []byte) (rpcErr error) {
	if c.rpcHist != nil {
		defer func(start time.Time) { c.observeRPC(req.Verb, start, rpcErr) }(time.Now())
	}
	lb := getLineBuf()
	defer putLineBuf(lb)
	line, withDeadline := c.appendDeadlinePrefix((*lb)[:0])
	line, err := req.AppendTo(line)
	if err != nil {
		return vfs.EINVAL
	}
	line = append(line, '\n')
	*lb = line
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return vfs.ENOTCONN
	}
	if c.cfg.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	}
	if _, err := c.bw.Write(line); err != nil {
		return c.failLocked(err)
	}
	if proto.Lookup(req.Verb).Body == proto.BodyTwoPhase {
		//lint:ignore lockheld the ready line must be read before the body is streamed, under the same connection-owning critical section
		if err := c.bw.Flush(); err != nil {
			return c.failLocked(err)
		}
		if withDeadline {
			if err := c.readDeadlineCode(); err != nil {
				return c.failLocked(err)
			}
			withDeadline = false
		}
		//lint:ignore lockheld the ready line must be read before the body is streamed, under the same connection-owning critical section
		ready, err := proto.ReadCode(c.br)
		if err != nil {
			return c.failLocked(err)
		}
		if ready < 0 {
			return vfs.FromCode(int(ready))
		}
	}
	// The body streams r → pooled window → socket, each Read forwarded
	// as it returns: a slow source keeps the server fed, and a reader
	// that hands over its last bytes together with io.EOF is not asked
	// again.
	bp := vfs.GetWindow(size)
	defer vfs.PutBuf(bp)
	buf := *bp
	for left := size; left > 0; {
		n, rerr := r.Read(buf[:min(int64(len(buf)), left)])
		left -= int64(n)
		if _, err := c.bw.Write(buf[:n]); err != nil {
			return c.failLocked(err)
		}
		if rerr != nil && left > 0 {
			// The promised body cannot be completed: the stream is lost.
			return c.failLocked(rerr)
		}
	}
	if trailer != nil {
		if _, err := c.bw.Write(trailer(nil)); err != nil {
			return c.failLocked(err)
		}
	}
	//lint:ignore lockheld putfile streams request and response on the one serialized connection; c.mu owns it end to end
	if err := c.bw.Flush(); err != nil {
		return c.failLocked(err)
	}
	if withDeadline {
		// One-phase put: the deadline status was pipelined behind the
		// blind body, so it is read here, ahead of the final status.
		if err := c.readDeadlineCode(); err != nil {
			return c.failLocked(err)
		}
	}
	//lint:ignore lockheld the response must be read under the same critical section that streamed the body
	code, err := proto.ReadCode(c.br)
	if err != nil {
		return c.failLocked(err)
	}
	if code < 0 {
		return vfs.FromCode(int(code))
	}
	return nil
}

// putFilePlain streams size bytes from r into the named file (putfile
// RPC): one round trip regardless of size (vfs.FilePutter), symmetric
// with getFilePlain.
func (c *Client) putFilePlain(path string, mode uint32, size int64, r io.Reader) error {
	return c.putStream(&proto.Request{Verb: "putfile", Path: path, Mode: int64(mode), Length: size},
		size, r, nil)
}

// clientFile is an open remote file. The fd is valid only for the
// connection generation it was opened on (§4: a descriptor is scoped
// to its connection).
type clientFile struct {
	c    *Client
	fd   int64
	gen  uint64
	name string
}

func (f *clientFile) checkGen() error {
	f.c.mu.Lock()
	ok := f.gen == f.c.gen && f.c.conn != nil
	f.c.mu.Unlock()
	if !ok {
		return vfs.ENOTCONN
	}
	return nil
}

func (f *clientFile) Pread(p []byte, off int64) (int, error) {
	if err := f.checkGen(); err != nil {
		return 0, err
	}
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > proto.MaxIOSize {
			chunk = proto.MaxIOSize
		}
		var got int64
		_, err := f.c.rpc(&proto.Request{Verb: "pread", FD: f.fd, Length: int64(chunk), Offset: off + int64(total)}, nil,
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

func (f *clientFile) Pwrite(p []byte, off int64) (int, error) {
	if err := f.checkGen(); err != nil {
		return 0, err
	}
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > proto.MaxIOSize {
			chunk = proto.MaxIOSize
		}
		n, err := f.c.rpc(&proto.Request{Verb: "pwrite", FD: f.fd, Length: int64(chunk), Offset: off + int64(total)},
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

func (f *clientFile) Fstat() (vfs.FileInfo, error) {
	if err := f.checkGen(); err != nil {
		return vfs.FileInfo{}, err
	}
	var fi vfs.FileInfo
	_, err := f.c.rpc(&proto.Request{Verb: "fstat", FD: f.fd}, nil, func(code int64, br *bufio.Reader) error {
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

func (f *clientFile) Ftruncate(size int64) error {
	if err := f.checkGen(); err != nil {
		return err
	}
	_, err := f.c.rpc(&proto.Request{Verb: "ftruncate", FD: f.fd, Size: size}, nil, nil)
	return err
}

func (f *clientFile) Sync() error {
	if err := f.checkGen(); err != nil {
		return err
	}
	_, err := f.c.rpc(&proto.Request{Verb: "fsync", FD: f.fd}, nil, nil)
	return err
}

func (f *clientFile) Close() error {
	if err := f.checkGen(); err != nil {
		// The connection that owned this descriptor is gone; the
		// server has already released it.
		return nil
	}
	_, err := f.c.rpc(&proto.Request{Verb: "close", FD: f.fd}, nil, nil)
	return err
}
