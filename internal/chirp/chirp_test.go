package chirp

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// testServer spins up a server on a simulated network and returns a
// dialer for clients with a chosen host identity.
type testServer struct {
	srv *Server
	net *netsim.Network
}

func startServer(t *testing.T, rootACL *acl.List) *testServer {
	t.Helper()
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "fs.sim",
		Owner:     "hostname:owner.sim",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		RootACL:   rootACL,
		Metrics:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	l, err := nw.Listen("fs.sim")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	return &testServer{srv: srv, net: nw}
}

func (ts *testServer) client(t *testing.T, host string) *Client {
	t.Helper()
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom(host, "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerBasicCycle(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")

	if err := vfs.WriteFile(c, "/greeting", []byte("hello chirp"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(c, "/greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello chirp" {
		t.Errorf("read %q", data)
	}
	fi, err := c.Stat("/greeting")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 11 || fi.IsDir {
		t.Errorf("stat = %+v", fi)
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "greeting" {
		t.Errorf("readdir = %+v (ACL file must be hidden)", ents)
	}
	if err := c.Rename("/greeting", "/hi"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/hi"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/hi"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("stat after unlink = %v", err)
	}
}

func TestWhoamiAndStatFS(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	who, err := c.Whoami()
	if err != nil {
		t.Fatal(err)
	}
	if who != "hostname:owner.sim" {
		t.Errorf("whoami = %q", who)
	}
	info, err := c.StatFS()
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalBytes <= 0 {
		t.Errorf("statfs = %+v", info)
	}
}

func TestACLEnforcement(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:reader.sim", acl.R|acl.L, 0)
	rootACL.Set("hostname:writer.sim", acl.R|acl.W|acl.L, 0)
	ts := startServer(t, rootACL)

	owner := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(owner, "/data", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	reader := ts.client(t, "reader.sim")
	if _, err := vfs.ReadFile(reader, "/data"); err != nil {
		t.Errorf("reader denied read: %v", err)
	}
	if err := vfs.WriteFile(reader, "/new", []byte("x"), 0o644); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("reader write = %v, want EACCES", err)
	}
	if err := reader.Unlink("/data"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("reader unlink = %v, want EACCES", err)
	}
	if err := reader.SetACL("/", "hostname:reader.sim", "rwla"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("reader setacl = %v, want EACCES", err)
	}

	writer := ts.client(t, "writer.sim")
	if err := vfs.WriteFile(writer, "/new", []byte("y"), 0o644); err != nil {
		t.Errorf("writer denied write: %v", err)
	}

	stranger := ts.client(t, "evil.org")
	if _, err := vfs.ReadFile(stranger, "/data"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("stranger read = %v, want EACCES", err)
	}
	if _, err := stranger.ReadDir("/"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("stranger list = %v, want EACCES", err)
	}
}

// The paper's reservation scenario: a visiting user with only v(rwl)
// calls mkdir and receives a private directory with exactly rwl — and
// cannot extend access because A was omitted.
func TestReserveRight(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:*.cse.nd.edu", acl.V, acl.R|acl.W|acl.L)
	ts := startServer(t, rootACL)

	laptop := ts.client(t, "laptop.cse.nd.edu")
	if err := laptop.Mkdir("/backup", 0o755); err != nil {
		t.Fatalf("reserved mkdir: %v", err)
	}
	// The new directory belongs to the caller.
	if err := vfs.WriteFile(laptop, "/backup/img1", []byte("dump"), 0o644); err != nil {
		t.Errorf("creator denied write in reserved dir: %v", err)
	}
	lines, err := laptop.GetACL("/backup")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "hostname:laptop.cse.nd.edu rwl") {
		t.Errorf("reserved ACL = %q, want exactly creator rwl", joined)
	}
	// No A right: the creator cannot extend access to others.
	if err := laptop.SetACL("/backup", "hostname:friend.org", "rl"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("setacl without A = %v, want EACCES", err)
	}
	// Another visitor cannot see inside.
	other := ts.client(t, "desk.cse.nd.edu")
	if _, err := other.ReadDir("/backup"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("other visitor list = %v, want EACCES", err)
	}
	// But can reserve their own space.
	if err := other.Mkdir("/scratch", 0o755); err != nil {
		t.Errorf("second reservation: %v", err)
	}
	// A visitor with only V cannot create files at the root itself.
	if err := vfs.WriteFile(other, "/toplevel", []byte("x"), 0o644); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("V-only root write = %v, want EACCES", err)
	}
}

// Reservation with the A sub-right allows delegation, as in the paper's
// globus:/O=Notre_Dame/* v(rwla) example.
func TestReserveWithAdminDelegates(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:*.nd.edu", acl.V, acl.R|acl.W|acl.L|acl.A)
	ts := startServer(t, rootACL)

	alice := ts.client(t, "alice.nd.edu")
	if err := alice.Mkdir("/proj", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetACL("/proj", "hostname:bob.example.org", "rl"); err != nil {
		t.Fatalf("delegation with A right failed: %v", err)
	}
	bob := ts.client(t, "bob.example.org")
	if _, err := bob.ReadDir("/proj"); err != nil {
		t.Errorf("delegated reader denied: %v", err)
	}
}

func TestMkdirInheritsACL(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:writer.sim", acl.R|acl.W|acl.L, 0)
	ts := startServer(t, rootACL)
	w := ts.client(t, "writer.sim")
	if err := w.Mkdir("/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	// Ordinary mkdir copies the parent policy: writer still has rwl.
	if err := vfs.WriteFile(w, "/sub/f", []byte("z"), 0o644); err != nil {
		t.Errorf("write in inherited dir: %v", err)
	}
}

func TestDeleteRight(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:janitor.sim", acl.L|acl.D, 0)
	ts := startServer(t, rootACL)
	owner := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(owner, "/junk", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := ts.client(t, "janitor.sim")
	// D grants delete but not read or write.
	if _, err := vfs.ReadFile(j, "/junk"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("janitor read = %v, want EACCES", err)
	}
	if err := vfs.WriteFile(j, "/junk2", []byte("x"), 0o644); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("janitor write = %v, want EACCES", err)
	}
	if err := j.Unlink("/junk"); err != nil {
		t.Errorf("janitor unlink with D right: %v", err)
	}
}

func TestGetPutFile(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16*3) // 192 KiB
	if err := c.PutFile("/blob", 0o644, int64(len(payload)), bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	n, err := c.GetFile("/blob", &sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) || !bytes.Equal(sink.Bytes(), payload) {
		t.Errorf("getfile returned %d bytes, corrupt=%v", n, !bytes.Equal(sink.Bytes(), payload))
	}
}

func TestACLFileIsUnreachable(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if _, err := c.Open("/"+ACLFileName, vfs.O_RDONLY, 0); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("open .__acl = %v, want EACCES", err)
	}
	if err := c.Unlink("/" + ACLFileName); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("unlink .__acl = %v, want EACCES", err)
	}
	if err := c.Rename("/"+ACLFileName, "/stolen"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("rename .__acl = %v, want EACCES", err)
	}
	// Dispatch guards every path argument the verb table declares; a
	// refused body verb has its body drained, so the stream stays framed.
	for _, v := range proto.Verbs {
		for _, f := range v.Args {
			if f != proto.ArgPath && f != proto.ArgPath2 {
				continue
			}
			req := &proto.Request{Verb: v.Name, Path: "/a", Path2: "/b", Length: 4}
			if f == proto.ArgPath {
				req.Path = "/d/" + ACLFileName
			} else {
				req.Path2 = "/d/" + ACLFileName
			}
			var body []byte
			if v.Body == proto.BodyLength || v.Body == proto.BodyTrailer {
				body = []byte("body")
			}
			if _, err := c.rpc(req, body, nil); vfs.AsErrno(err) != vfs.EACCES {
				t.Errorf("%s naming .__acl = %v, want EACCES", v.Name, err)
			}
			if _, err := c.Whoami(); err != nil {
				t.Fatalf("stream out of sync after refused %s: %v", v.Name, err)
			}
		}
	}
}

func TestRmdirTreatsACLOnlyDirAsEmpty(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/d"); err != nil {
		t.Fatalf("rmdir of dir holding only its ACL: %v", err)
	}
	if err := c.Mkdir("/d2", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/d2/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/d2"); vfs.AsErrno(err) != vfs.ENOTEMPTY {
		t.Errorf("rmdir non-empty = %v, want ENOTEMPTY", err)
	}
}

// §4: "a file descriptor returned by open is only valid for the
// duration of the connection" — after a reconnect, old descriptors
// fence with ENOTCONN and the server has released its state.
func TestFDInvalidAfterReconnect(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(c, "/f", []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconnect(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.Pread(buf, 0); vfs.AsErrno(err) != vfs.ENOTCONN {
		t.Errorf("pread on stale fd = %v, want ENOTCONN", err)
	}
	// The client itself is fine after reconnecting.
	if _, err := c.Stat("/f"); err != nil {
		t.Errorf("stat after reconnect: %v", err)
	}
}

func TestOpsAfterCloseReturnENOTCONN(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	c.Close()
	if _, err := c.Stat("/"); vfs.AsErrno(err) != vfs.ENOTCONN {
		t.Errorf("stat after close = %v, want ENOTCONN", err)
	}
}

func TestMaxFDs(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "fs.sim",
		Owner:     "hostname:owner.sim",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		MaxFDs:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	l, _ := nw.Listen("fs.sim")
	defer l.Close()
	go srv.Serve(l)
	c, err := Dial(ClientConfig{
		Dial:        func() (net.Conn, error) { return nw.DialFrom("owner.sim", "fs.sim", netsim.Loopback) },
		Credentials: []auth.Credential{auth.HostnameCredential{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var files []vfs.File
	for i := 0; i < 4; i++ {
		f, err := c.Open(fmt.Sprintf("/f%d", i), vfs.O_WRONLY|vfs.O_CREAT, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if _, err := c.Open("/overflow", vfs.O_WRONLY|vfs.O_CREAT, 0o644); vfs.AsErrno(err) != vfs.EMFILE {
		t.Errorf("open beyond MaxFDs = %v, want EMFILE", err)
	}
	files[0].Close()
	if _, err := c.Open("/ok", vfs.O_WRONLY|vfs.O_CREAT, 0o644); err != nil {
		t.Errorf("open after close = %v", err)
	}
}

func TestExclusiveCreate(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	f, err := c.Open("/x", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := c.Open("/x", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644); vfs.AsErrno(err) != vfs.EEXIST {
		t.Errorf("second exclusive create = %v, want EEXIST", err)
	}
}

func TestLargeTransferSplitsChunks(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	payload := make([]byte, 3<<20) // larger than one protocol I/O would carry comfortably
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := vfs.WriteFile(c, "/big", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(c, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large transfer corrupted")
	}
}

func TestServerOverTCP(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "localhost",
		Owner:     "hostname:localhost",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	c, err := DialTCP(l.Addr().String(), []auth.Credential{auth.HostnameCredential{}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := vfs.WriteFile(c, "/t", []byte("tcp works"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(c, "/t")
	if err != nil || string(data) != "tcp works" {
		t.Fatalf("tcp cycle: %q, %v", data, err)
	}
	if c.Subject() != "hostname:localhost" {
		t.Errorf("subject over TCP = %q", c.Subject())
	}
}

func TestStatRequiresListRight(t *testing.T) {
	rootACL := &acl.List{}
	rootACL.Set("hostname:blind.sim", acl.R, 0) // read but not list
	ts := startServer(t, rootACL)
	owner := ts.client(t, "owner.sim")
	if err := vfs.WriteFile(owner, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	blind := ts.client(t, "blind.sim")
	if _, err := blind.Stat("/f"); vfs.AsErrno(err) != vfs.EACCES {
		t.Errorf("stat without L = %v, want EACCES", err)
	}
	// But reading works: R does not imply L.
	if _, err := vfs.ReadFile(blind, "/f"); err != nil {
		t.Errorf("read with R = %v", err)
	}
}

func TestServerStatsCount(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	before := ts.srv.Stats.Requests.Load()
	c.Stat("/")
	c.Stat("/")
	if got := ts.srv.Stats.Requests.Load() - before; got < 2 {
		t.Errorf("requests counted = %d, want >= 2", got)
	}
	if ts.srv.Stats.Connections.Load() < 1 {
		t.Error("connections not counted")
	}
}
