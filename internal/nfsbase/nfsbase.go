// Package nfsbase implements the NFS baseline the paper compares
// against in §7 (Figures 4 and 5).
//
// It is a simplified NFSv2-style protocol that reproduces, faithfully,
// the two properties the paper attributes to NFS performance:
//
//   - pathname resolution by per-component LOOKUP RPCs (one round trip
//     per path element), which makes stat and open slower than Chirp's
//     whole-path operations;
//   - fixed-size data RPCs (4 KB read/write packets in strict
//     request/response alternation), which caps bandwidth at
//     packet-size / round-trip-time regardless of link speed — the
//     10 MB/s ceiling of Figure 5.
//
// As in the paper's apples-to-apples configuration, there is no client
// caching and writes are asynchronous on the server.
//
// The wire protocol reuses the line+payload framing conventions of the
// Chirp codec for simplicity; the *semantics* (stateless handles,
// component lookups, fixed-size transfers) are what make it NFS-like.
package nfsbase

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"tss/internal/chirp/proto"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// MaxRPCData is the fixed maximum payload of one READ or WRITE RPC:
// the 4 KB packets of Figure 5.
const MaxRPCData = 4096

// Handle is an opaque, stateless file handle: the server can decode it
// without per-client state, as NFS demands. (It encodes the confined
// path; real NFS encodes a device/inode pair. Statelessness, not the
// encoding, is the property under test.)
type Handle string

// handleFor builds a handle for a normalized path.
func handleFor(path string) Handle {
	return Handle(hex.EncodeToString([]byte(path)))
}

// path decodes the handle back to a normalized path.
func (h Handle) path() (string, error) {
	b, err := hex.DecodeString(string(h))
	if err != nil {
		return "", vfs.EBADF
	}
	n, err := pathutil.Norm(string(b))
	if err != nil {
		return "", vfs.EBADF
	}
	return n, nil
}

// Server serves the NFS-like protocol over one exported directory.
type Server struct {
	fs *vfs.LocalFS
}

// NewServer exports the host directory root.
func NewServer(root string) (*Server, error) {
	fs, err := vfs.NewLocalFS(root)
	if err != nil {
		return nil, err
	}
	return &Server{fs: fs}, nil
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		line, err := proto.ReadLine(br)
		if err != nil {
			return
		}
		if err := s.dispatch(string(line), br, bw); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func reply(bw *bufio.Writer, v int64) error {
	_, err := fmt.Fprintf(bw, "%d\n", v)
	return err
}

func replyErr(bw *bufio.Writer, err error) error {
	return reply(bw, int64(vfs.Code(err)))
}

// dispatch handles one RPC. The protocol is strictly request/response:
// every RPC is one line (plus at most MaxRPCData payload bytes) each
// way, which is exactly the behaviour that throttles NFS in Figure 5.
func (s *Server) dispatch(line string, br *bufio.Reader, bw *bufio.Writer) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return replyErr(bw, vfs.EINVAL)
	}
	verb, args := fields[0], fields[1:]
	switch verb {
	case "lookup": // lookup <dirhandle> <name> -> 0, handle line, stat line
		if len(args) != 2 {
			return replyErr(bw, vfs.EINVAL)
		}
		dir, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		name, err := proto.Unescape(args[1])
		if err != nil || strings.ContainsRune(name, '/') {
			return replyErr(bw, vfs.EINVAL)
		}
		p := pathutil.Join(dir, name)
		fi, err := s.fs.Stat(p)
		if err != nil {
			return replyErr(bw, err)
		}
		if err := reply(bw, 0); err != nil {
			return err
		}
		fmt.Fprintf(bw, "%s\n", handleFor(p))
		_, err = fmt.Fprintf(bw, "%s\n", proto.MarshalStat(fi))
		return err

	case "getattr": // getattr <handle> -> 0, stat line
		if len(args) != 1 {
			return replyErr(bw, vfs.EINVAL)
		}
		p, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		fi, err := s.fs.Stat(p)
		if err != nil {
			return replyErr(bw, err)
		}
		if err := reply(bw, 0); err != nil {
			return err
		}
		_, err = fmt.Fprintf(bw, "%s\n", proto.MarshalStat(fi))
		return err

	case "read": // read <handle> <offset> <count> -> n, n bytes
		if len(args) != 3 {
			return replyErr(bw, vfs.EINVAL)
		}
		p, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		var off, count int64
		if _, err := fmt.Sscanf(args[1]+" "+args[2], "%d %d", &off, &count); err != nil || count < 0 || count > MaxRPCData || off < 0 {
			return replyErr(bw, vfs.EINVAL)
		}
		f, err := s.fs.Open(p, vfs.O_RDONLY, 0)
		if err != nil {
			return replyErr(bw, err)
		}
		buf := make([]byte, count)
		n, err := f.Pread(buf, off)
		f.Close()
		if err != nil {
			return replyErr(bw, err)
		}
		if err := reply(bw, int64(n)); err != nil {
			return err
		}
		_, err = bw.Write(buf[:n])
		return err

	case "write": // write <handle> <offset> <count> + count bytes -> n
		if len(args) != 3 {
			return replyErr(bw, vfs.EINVAL)
		}
		var off, count int64
		if _, err := fmt.Sscanf(args[1]+" "+args[2], "%d %d", &off, &count); err != nil || count < 0 || count > MaxRPCData || off < 0 {
			replyErr(bw, vfs.EINVAL)
			return fmt.Errorf("nfsbase: bad write header")
		}
		buf := make([]byte, count)
		if _, err := io.ReadFull(br, buf); err != nil {
			return err
		}
		p, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		f, err := s.fs.Open(p, vfs.O_WRONLY, 0)
		if err != nil {
			return replyErr(bw, err)
		}
		n, err := f.Pwrite(buf, off)
		f.Close()
		if err != nil {
			return replyErr(bw, err)
		}
		return reply(bw, int64(n))

	case "create": // create <dirhandle> <name> <mode> -> 0, handle line
		if len(args) != 3 {
			return replyErr(bw, vfs.EINVAL)
		}
		dir, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		name, err := proto.Unescape(args[1])
		if err != nil || strings.ContainsRune(name, '/') {
			return replyErr(bw, vfs.EINVAL)
		}
		var mode uint32
		fmt.Sscanf(args[2], "%o", &mode)
		p := pathutil.Join(dir, name)
		f, err := s.fs.Open(p, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, mode)
		if err != nil {
			return replyErr(bw, err)
		}
		f.Close()
		if err := reply(bw, 0); err != nil {
			return err
		}
		_, err = fmt.Fprintf(bw, "%s\n", handleFor(p))
		return err

	case "remove", "rmdir": // remove <dirhandle> <name> -> 0
		if len(args) != 2 {
			return replyErr(bw, vfs.EINVAL)
		}
		dir, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		name, err := proto.Unescape(args[1])
		if err != nil {
			return replyErr(bw, vfs.EINVAL)
		}
		p := pathutil.Join(dir, name)
		if verb == "remove" {
			return replyErr(bw, s.fs.Unlink(p))
		}
		return replyErr(bw, s.fs.Rmdir(p))

	case "mkdir": // mkdir <dirhandle> <name> <mode> -> 0
		if len(args) != 3 {
			return replyErr(bw, vfs.EINVAL)
		}
		dir, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		name, err := proto.Unescape(args[1])
		if err != nil {
			return replyErr(bw, vfs.EINVAL)
		}
		var mode uint32
		fmt.Sscanf(args[2], "%o", &mode)
		return replyErr(bw, s.fs.Mkdir(pathutil.Join(dir, name), mode))

	case "rename": // rename <dh1> <name1> <dh2> <name2> -> 0
		if len(args) != 4 {
			return replyErr(bw, vfs.EINVAL)
		}
		d1, err1 := Handle(args[0]).path()
		n1, err2 := proto.Unescape(args[1])
		d2, err3 := Handle(args[2]).path()
		n2, err4 := proto.Unescape(args[3])
		for _, e := range []error{err1, err2, err3, err4} {
			if e != nil {
				return replyErr(bw, vfs.EINVAL)
			}
		}
		return replyErr(bw, s.fs.Rename(pathutil.Join(d1, n1), pathutil.Join(d2, n2)))

	case "readdir": // readdir <handle> -> count, entry lines
		if len(args) != 1 {
			return replyErr(bw, vfs.EINVAL)
		}
		p, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		ents, err := s.fs.ReadDir(p)
		if err != nil {
			return replyErr(bw, err)
		}
		if err := reply(bw, int64(len(ents))); err != nil {
			return err
		}
		for _, e := range ents {
			if _, err := fmt.Fprintf(bw, "%s\n", proto.MarshalDirEntry(e)); err != nil {
				return err
			}
		}
		return nil

	case "truncate": // truncate <handle> <size> -> 0
		if len(args) != 2 {
			return replyErr(bw, vfs.EINVAL)
		}
		p, err := Handle(args[0]).path()
		if err != nil {
			return replyErr(bw, err)
		}
		var size int64
		if _, err := fmt.Sscanf(args[1], "%d", &size); err != nil || size < 0 {
			return replyErr(bw, vfs.EINVAL)
		}
		return replyErr(bw, s.fs.Truncate(p, size))

	case "statfs": // statfs -> 0, "total free"
		info, err := s.fs.StatFS()
		if err != nil {
			return replyErr(bw, err)
		}
		if err := reply(bw, 0); err != nil {
			return err
		}
		_, err = fmt.Fprintf(bw, "%d %d\n", info.TotalBytes, info.FreeBytes)
		return err
	}
	return replyErr(bw, vfs.EINVAL)
}

// Client implements vfs.FileSystem over the NFS-like protocol,
// resolving every pathname one component at a time — the defining
// latency cost of the baseline.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	cfg  ClientConfig
}

// ClientConfig configures an NFS baseline client.
type ClientConfig struct {
	Dial    func() (net.Conn, error)
	Timeout time.Duration
}

var _ vfs.FileSystem = (*Client)(nil)

// Dial connects a new client.
func Dial(cfg ClientConfig) (*Client, error) {
	conn, err := cfg.Dial()
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		cfg:  cfg,
	}, nil
}

// Close tears down the transport.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// rpc performs one request/response exchange.
func (c *Client) rpc(line string, payload []byte, body func(code int64, br *bufio.Reader) error) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0, vfs.ENOTCONN
	}
	if c.cfg.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	}
	if _, err := c.bw.WriteString(line + "\n"); err != nil {
		return 0, vfs.ENOTCONN
	}
	if payload != nil {
		if _, err := c.bw.Write(payload); err != nil {
			return 0, vfs.ENOTCONN
		}
	}
	//lint:ignore lockheld the NFS baseline mimics a stateless RPC client: one serialized exchange per connection, owned by c.mu
	if err := c.bw.Flush(); err != nil {
		return 0, vfs.ENOTCONN
	}
	//lint:ignore lockheld the response must be read under the same critical section that wrote the request
	code, err := proto.ReadCode(c.br)
	if err != nil {
		return 0, vfs.ENOTCONN
	}
	if body != nil {
		if err := body(code, c.br); err != nil {
			return 0, vfs.ENOTCONN
		}
	}
	if code < 0 {
		return 0, vfs.FromCode(int(code))
	}
	return code, nil
}

// rootHandle is the well-known handle of the export root.
func rootHandle() Handle { return handleFor("/") }

// walk resolves a path with one lookup RPC per component, like the NFS
// client in the kernel. It returns the handle of the final component.
func (c *Client) walk(path string) (Handle, vfs.FileInfo, error) {
	n, err := pathutil.Norm(path)
	if err != nil {
		return "", vfs.FileInfo{}, vfs.EINVAL
	}
	h := rootHandle()
	var fi vfs.FileInfo
	if n == "/" {
		fi, err := c.getattr(h)
		return h, fi, err
	}
	for _, comp := range pathutil.Split(n) {
		var nh Handle
		nh, fi, err = c.lookup(h, comp)
		if err != nil {
			return "", vfs.FileInfo{}, err
		}
		h = nh
	}
	return h, fi, nil
}

// walkParent resolves the parent directory of path and returns its
// handle plus the final name component.
func (c *Client) walkParent(path string) (Handle, string, error) {
	n, err := pathutil.Norm(path)
	if err != nil {
		return "", "", vfs.EINVAL
	}
	if n == "/" {
		return "", "", vfs.EINVAL
	}
	h, _, err := c.walk(pathutil.Dir(n))
	if err != nil {
		return "", "", err
	}
	return h, pathutil.Base(n), nil
}

func (c *Client) lookup(dir Handle, name string) (Handle, vfs.FileInfo, error) {
	var h Handle
	var fi vfs.FileInfo
	_, err := c.rpc(fmt.Sprintf("lookup %s %s", dir, proto.Escape(name)), nil,
		func(code int64, br *bufio.Reader) error {
			if code < 0 {
				return nil
			}
			hl, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			h = Handle(hl)
			sl, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			fi, err = proto.UnmarshalStat(sl)
			return err
		})
	return h, fi, err
}

func (c *Client) getattr(h Handle) (vfs.FileInfo, error) {
	var fi vfs.FileInfo
	_, err := c.rpc(fmt.Sprintf("getattr %s", h), nil, func(code int64, br *bufio.Reader) error {
		if code < 0 {
			return nil
		}
		sl, err := proto.ReadLine(br)
		if err != nil {
			return err
		}
		fi, err = proto.UnmarshalStat(sl)
		return err
	})
	return fi, err
}

// Open resolves the path (per-component lookups) and returns a file
// whose reads and writes are split into MaxRPCData packets.
func (c *Client) Open(path string, flags int, mode uint32) (vfs.File, error) {
	h, fi, err := c.walk(path)
	if vfs.AsErrno(err) == vfs.ENOENT && flags&vfs.O_CREAT != 0 {
		dh, name, perr := c.walkParent(path)
		if perr != nil {
			return nil, perr
		}
		var nh Handle
		_, cerr := c.rpc(fmt.Sprintf("create %s %s %o", dh, proto.Escape(name), mode), nil,
			func(code int64, br *bufio.Reader) error {
				if code < 0 {
					return nil
				}
				hl, err := proto.ReadLine(br)
				nh = Handle(hl)
				return err
			})
		if cerr != nil {
			return nil, cerr
		}
		return &nfsFile{c: c, h: nh, name: pathutil.Base(path)}, nil
	}
	if err != nil {
		return nil, err
	}
	if fi.IsDir {
		return nil, vfs.EISDIR
	}
	if flags&vfs.O_EXCL != 0 && flags&vfs.O_CREAT != 0 {
		return nil, vfs.EEXIST
	}
	if flags&vfs.O_TRUNC != 0 {
		if _, err := c.rpc(fmt.Sprintf("truncate %s 0", h), nil, nil); err != nil {
			return nil, err
		}
	}
	return &nfsFile{c: c, h: h, name: pathutil.Base(path)}, nil
}

// Stat performs the full component walk — the reason NFS stat latency
// exceeds Chirp's in Figure 4.
func (c *Client) Stat(path string) (vfs.FileInfo, error) {
	_, fi, err := c.walk(path)
	return fi, err
}

// Unlink removes a file.
func (c *Client) Unlink(path string) error {
	dh, name, err := c.walkParent(path)
	if err != nil {
		return err
	}
	_, err = c.rpc(fmt.Sprintf("remove %s %s", dh, proto.Escape(name)), nil, nil)
	return err
}

// Rename renames a file or directory.
func (c *Client) Rename(oldPath, newPath string) error {
	d1, n1, err := c.walkParent(oldPath)
	if err != nil {
		return err
	}
	d2, n2, err := c.walkParent(newPath)
	if err != nil {
		return err
	}
	_, err = c.rpc(fmt.Sprintf("rename %s %s %s %s", d1, proto.Escape(n1), d2, proto.Escape(n2)), nil, nil)
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, mode uint32) error {
	dh, name, err := c.walkParent(path)
	if err != nil {
		return err
	}
	_, err = c.rpc(fmt.Sprintf("mkdir %s %s %o", dh, proto.Escape(name), mode), nil, nil)
	return err
}

// Rmdir removes a directory.
func (c *Client) Rmdir(path string) error {
	dh, name, err := c.walkParent(path)
	if err != nil {
		return err
	}
	_, err = c.rpc(fmt.Sprintf("rmdir %s %s", dh, proto.Escape(name)), nil, nil)
	return err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	h, fi, err := c.walk(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir {
		return nil, vfs.ENOTDIR
	}
	var ents []vfs.DirEntry
	_, err = c.rpc(fmt.Sprintf("readdir %s", h), nil, func(code int64, br *bufio.Reader) (err error) {
		ents, err = proto.ReadDirEntries(br, code)
		return err
	})
	return ents, err
}

// Truncate changes a file's length.
func (c *Client) Truncate(path string, size int64) error {
	h, _, err := c.walk(path)
	if err != nil {
		return err
	}
	_, err = c.rpc(fmt.Sprintf("truncate %s %d", h, size), nil, nil)
	return err
}

// Chmod is accepted and ignored (the baseline does not model modes).
func (c *Client) Chmod(path string, mode uint32) error {
	_, _, err := c.walk(path)
	return err
}

// StatFS reports server capacity.
func (c *Client) StatFS() (vfs.FSInfo, error) {
	var info vfs.FSInfo
	_, err := c.rpc("statfs", nil, func(code int64, br *bufio.Reader) error {
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

// nfsFile performs I/O in fixed 4 KB request/response RPCs.
type nfsFile struct {
	c    *Client
	h    Handle
	name string
}

func (f *nfsFile) Pread(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > MaxRPCData {
			chunk = MaxRPCData
		}
		var got int64
		_, err := f.c.rpc(fmt.Sprintf("read %s %d %d", f.h, off+int64(total), chunk), nil,
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
			break
		}
		total += int(got)
		if got < int64(chunk) {
			break
		}
	}
	return total, nil
}

func (f *nfsFile) Pwrite(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > MaxRPCData {
			chunk = MaxRPCData
		}
		n, err := f.c.rpc(fmt.Sprintf("write %s %d %d", f.h, off+int64(total), chunk), p[total:total+chunk], nil)
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

func (f *nfsFile) Fstat() (vfs.FileInfo, error) {
	fi, err := f.c.getattr(f.h)
	if err != nil {
		return fi, err
	}
	fi.Name = f.name
	return fi, nil
}

func (f *nfsFile) Ftruncate(size int64) error {
	_, err := f.c.rpc(fmt.Sprintf("truncate %s %d", f.h, size), nil, nil)
	return err
}

// Sync is a no-op: the baseline runs in asynchronous mode, like the
// paper's NFS configuration.
func (f *nfsFile) Sync() error { return nil }

// Close releases nothing: the protocol is stateless.
func (f *nfsFile) Close() error { return nil }
