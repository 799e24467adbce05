package chirp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// countingConn counts the writes the server makes to its connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// guardLinks are the transports the allocation guards run over:
// loopback TCP, and a netsim Loopback link, which must add nothing to
// the TCP counts — the simulator's queue and timer reuse their storage,
// so a netsim workload's allocations are the stack's.
var guardLinks = []struct {
	name string
	pool func(t *testing.T, reg *obs.Registry) *Client
}{
	{"tcp", func(t *testing.T, reg *obs.Registry) *Client { _, c := tcpPool(t, 2, reg, nil); return c }},
	{"netsim", func(t *testing.T, reg *obs.Registry) *Client { return simPool(t, 2, reg) }},
}

// TestWireAllocationGuards pins the per-RPC cost of the descriptor path
// on both ends of the link: an 8 KiB pread and an 8 KiB pwrite, each
// behind the deadline prefix, with metrics on at both ends. The only
// allocations left in the client and the server together are the four
// status lines' buffers in respondCode, which escape through bw.Write:
// one for each prefix and one for each reply.
func TestWireAllocationGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("the bound leans on a warm sync.Pool, which the race detector empties at random")
	}
	for _, link := range guardLinks {
		c := link.pool(t, obs.NewRegistry())
		buf := make([]byte, 8<<10)
		if err := vfs.WriteFile(c, "/blob", make([]byte, 64<<10), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := c.Open("/blob", vfs.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := f.Pread(buf, 8<<10); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Pwrite(buf, 16<<10); err != nil {
				t.Fatal(err)
			}
		}); n != 4 {
			t.Errorf("%s: pread + pwrite round trips allocate %.1f/op, want 4 (one per status line)", link.name, n)
		}
		f.Close()
	}
}

// TestPathVerbAllocationGuards pins the per-RPC cost of the path verbs
// on both ends of the link, with metrics on at both ends and every
// request behind the deadline prefix. Each RPC pays two respondCode
// buffers (the prefix's status line and the reply's) and, for a path
// verb, the server's copy of the path. What else each allocates:
//   - stat hit (4): the client's copy of the name in the stat line;
//   - stat miss (3): nothing (the ACL stamp and the errno cost nothing);
//   - open + close (11): the server's openFD, localFile and *os.File
//     (two objects: one openat and one fstat, no os.OpenFile), the
//     client's file handle and its copy of the name;
//   - getdir of 16 entries (7): one string and one entry slice on each
//     end, however many entries the listing holds.
func TestPathVerbAllocationGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("the bound leans on a warm sync.Pool, which the race detector empties at random")
	}
	for _, link := range guardLinks {
		c := link.pool(t, obs.NewRegistry())
		if err := c.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := vfs.WriteFile(c, fmt.Sprintf("/d/file%02d", i), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		settleACLs()
		for _, g := range []struct {
			name string
			want float64
			op   func() error
		}{
			{"stat hit", 4, func() error {
				_, err := c.Stat("/d/file00")
				return err
			}},
			{"stat miss", 3, func() error {
				if _, err := c.Stat("/d/missing"); vfs.AsErrno(err) != vfs.ENOENT {
					return fmt.Errorf("stat of a missing file = %v, want ENOENT", err)
				}
				return nil
			}},
			{"open + close", 11, func() error {
				f, err := c.Open("/d/file00", vfs.O_RDONLY, 0)
				if err != nil {
					return err
				}
				return f.Close()
			}},
			{"getdir", 7, func() error {
				ents, err := c.ReadDir("/d")
				if err == nil && len(ents) != 16 {
					err = fmt.Errorf("getdir listed %d entries, want 16", len(ents))
				}
				return err
			}},
		} {
			if err := g.op(); err != nil { // warm the ACL cache and the pools
				t.Fatalf("%s %s: %v", link.name, g.name, err)
			}
			n := testing.AllocsPerRun(200, func() {
				if err := g.op(); err != nil {
					t.Fatalf("%s %s: %v", link.name, g.name, err)
				}
			})
			if n != g.want {
				t.Errorf("%s: %s allocates %.1f/op on both ends, want %.0f", link.name, g.name, n, g.want)
			}
		}
	}
}

// TestOneServerWritePerRequest pins the flush rule: the server serves a
// request already buffered behind the one it just answered before it
// flushes, so a deadline-prefixed pread costs one server write, not one
// for the prefix and one for the reply.
func TestOneServerWritePerRequest(t *testing.T) {
	var writes atomic.Int64
	_, c := tcpPool(t, 1, nil, func(nc net.Conn) net.Conn { return countingConn{nc, &writes} })
	if err := vfs.WriteFile(c, "/f", []byte("one write per request"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		before := writes.Load()
		if _, err := f.Pread(buf, 4); err != nil {
			t.Fatal(err)
		}
		if got := writes.Load() - before; got != 1 {
			t.Fatalf("deadline-prefixed pread took %d server writes, want 1", got)
		}
	}
}

// TestSplitPrefixStillAnswered: a client whose prefix and request
// arrive apart — the prefix alone, or with half the request line behind
// it — still hears every answer. The server withholds a reply only
// while a whole request line is waiting.
func TestSplitPrefixStillAnswered(t *testing.T) {
	ts := startServer(t, nil)
	conn, err := ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "auth hostname\n")
	if line, _ := br.ReadString('\n'); line != "yes\n" {
		t.Fatalf("auth offer answered %q", line)
	}
	if verdict, _ := br.ReadString('\n'); !strings.HasPrefix(verdict, "ok ") {
		t.Fatalf("auth verdict %q", verdict)
	}
	whoami := func() {
		t.Helper()
		code, err := proto.ReadCode(br)
		if err != nil || code != 0 {
			t.Fatalf("whoami answered %d, %v", code, err)
		}
		if line, err := proto.ReadLine(br); err != nil || !strings.Contains(string(line), "owner.sim") {
			t.Fatalf("whoami body %q, %v", line, err)
		}
	}
	for _, split := range []struct{ first, second string }{
		{"deadline 5000\n", "whoami\n"},
		{"deadline 5000\nwho", "ami\n"},
	} {
		io.WriteString(conn, split.first)
		// The prefix is answered before the rest of the request exists.
		if code, err := proto.ReadCode(br); err != nil || code != 0 {
			t.Fatalf("after %q: prefix answered %d, %v", split.first, code, err)
		}
		io.WriteString(conn, split.second)
		whoami()
	}
	// Both in one write: both answers, in order.
	io.WriteString(conn, "deadline 5000\nwhoami\n")
	if code, err := proto.ReadCode(br); err != nil || code != 0 {
		t.Fatalf("pipelined prefix answered %d, %v", code, err)
	}
	whoami()
}
