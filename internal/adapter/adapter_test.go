package adapter

import (
	"fmt"
	"net"

	"sync/atomic"
	"testing"
	"time"
	"tss/internal/abstraction"

	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

func localFS(t *testing.T) *vfs.LocalFS {
	t.Helper()
	l, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func noSleep(time.Duration) {}

func TestMountResolutionLongestPrefix(t *testing.T) {
	a := New(Config{Sleep: noSleep})
	outer := localFS(t)
	inner := localFS(t)
	if err := a.MountFS("/data", outer); err != nil {
		t.Fatal(err)
	}
	if err := a.MountFS("/data/hot", inner); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/data/f", []byte("outer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/data/hot/f", []byte("inner"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := vfs.ReadFile(outer, "/f"); string(got) != "outer" {
		t.Errorf("outer got %q", got)
	}
	if got, _ := vfs.ReadFile(inner, "/f"); string(got) != "inner" {
		t.Errorf("inner got %q", got)
	}
	// Outer must not see the inner file.
	if vfs.Exists(outer, "/hot/f") {
		t.Error("longest-prefix resolution leaked into outer fs")
	}
}

func TestMountDuplicateAndUnmount(t *testing.T) {
	a := New(Config{Sleep: noSleep})
	fs := localFS(t)
	if err := a.MountFS("/m", fs); err != nil {
		t.Fatal(err)
	}
	if err := a.MountFS("/m", fs); vfs.AsErrno(err) != vfs.EEXIST {
		t.Errorf("duplicate mount = %v", err)
	}
	if err := a.Unmount("/m"); err != nil {
		t.Fatal(err)
	}
	if err := a.Unmount("/m"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("double unmount = %v", err)
	}
	if _, err := a.Stat("/m/x"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("stat after unmount = %v", err)
	}
}

func TestDefaultNamespaceResolver(t *testing.T) {
	backend := localFS(t)
	var calls atomic.Int32
	a := New(Config{
		Sleep: noSleep,
		Resolve: func(scheme, host string) (vfs.FileSystem, error) {
			calls.Add(1)
			if scheme != "chirp" || host != "shared.cse.nd.edu" {
				return nil, vfs.ENOENT
			}
			return backend, nil
		},
	})
	if err := a.Mkdir("/chirp/shared.cse.nd.edu/software", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(a, "/chirp/shared.cse.nd.edu/software/pkg", []byte("bin"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(backend, "/software/pkg")
	if err != nil || string(data) != "bin" {
		t.Fatalf("backend content: %q, %v", data, err)
	}
	// Resolution is cached: one resolve per (scheme, host).
	a.Stat("/chirp/shared.cse.nd.edu/software")
	if calls.Load() != 1 {
		t.Errorf("resolver called %d times, want 1 (cached)", calls.Load())
	}
	if _, err := a.Stat("/chirp/unknown.host/x"); err == nil {
		t.Error("unknown host resolved")
	}
	if _, err := a.Stat("/nowhere"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("unmounted path = %v", err)
	}
}

// The §6 mountlist example: logical names mapping to abstractions.
func TestMountlist(t *testing.T) {
	backend := localFS(t)
	if err := vfs.MkdirAll(backend, "/software", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(backend, "/software/tool", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := New(Config{
		Sleep: noSleep,
		Resolve: func(scheme, host string) (vfs.FileSystem, error) {
			return backend, nil
		},
	})
	err := a.ApplyMountlist(`
# private namespace for the application
/usr/local /chirp/shared.cse.nd.edu/software
`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(a, "/usr/local/tool")
	if err != nil || string(data) != "x" {
		t.Fatalf("through mountlist: %q, %v", data, err)
	}
}

func TestMountlistParseErrors(t *testing.T) {
	if _, err := ParseMountlist("/only-one-field"); err == nil {
		t.Error("malformed mountlist accepted")
	}
	pairs, err := ParseMountlist("# just a comment\n\n")
	if err != nil || len(pairs) != 0 {
		t.Errorf("comment-only mountlist: %v, %v", pairs, err)
	}
}

func TestReadDirSynthesizesNamespace(t *testing.T) {
	a := New(Config{Sleep: noSleep})
	a.MountFS("/cfs/hostA", localFS(t))
	a.MountFS("/cfs/hostB", localFS(t))
	a.MountFS("/dsfs/vol1", localFS(t))
	ents, err := a.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("root listing = %+v", ents)
	}
	ents, err = a.ReadDir("/cfs")
	if err != nil || len(ents) != 2 {
		t.Fatalf("/cfs listing = %+v, %v", ents, err)
	}
}

func TestSyncFlagAppended(t *testing.T) {
	fs := &flagRecorder{FileSystem: localFS(t)}
	a := New(Config{Sync: true, Sleep: noSleep})
	a.MountFS("/m", fs)
	f, err := a.Open("/m/f", vfs.O_WRONLY|vfs.O_CREAT, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if fs.lastFlags&vfs.O_SYNC == 0 {
		t.Error("O_SYNC not appended to open flags")
	}
}

type flagRecorder struct {
	vfs.FileSystem
	lastFlags int
}

func (r *flagRecorder) Open(path string, flags int, mode uint32) (vfs.File, error) {
	r.lastFlags = flags
	return r.FileSystem.Open(path, flags, mode)
}

// --- recovery protocol over a real Chirp server ---

type bouncer struct {
	t    *testing.T
	nw   *netsim.Network
	srv  *chirp.Server
	name string
	lis  *netsim.Listener
}

func startBouncer(t *testing.T) *bouncer {
	b := &bouncer{t: t, nw: netsim.NewNetwork(), name: "fs.sim"}
	srv, err := chirp.NewServer(t.TempDir(), chirp.ServerConfig{
		Name:      b.name,
		Owner:     "hostname:client.sim",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.srv = srv
	b.up()
	return b
}

func (b *bouncer) up() {
	l, err := b.nw.Listen(b.name)
	if err != nil {
		b.t.Fatal(err)
	}
	b.lis = l
	go b.srv.Serve(l)
}

func (b *bouncer) down() { b.lis.Close() }

func (b *bouncer) client() *chirp.Client {
	c, err := chirp.Dial(chirp.ClientConfig{
		Dial: func() (net.Conn, error) {
			return b.nw.DialFrom("client.sim", b.name, netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     2 * time.Second,
	})
	if err != nil {
		b.t.Fatal(err)
	}
	return c
}

func TestRecoveryReopensAfterReconnect(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	a := New(Config{Sleep: noSleep, MaxRetries: 8})
	a.MountFS("/srv", cli)

	if err := vfs.WriteFile(a, "/srv/f", []byte("persistent"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := a.Open("/srv/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate server restart: drop the connection underneath the
	// open file. The adapter must reconnect, re-open, verify the
	// inode, and retry transparently.
	cli.Close() // hard-drop the transport
	buf := make([]byte, 10)
	n, err := f.Pread(buf, 0)
	if err != nil || string(buf[:n]) != "persistent" {
		t.Fatalf("read after reconnect = %q, %v", buf[:n], err)
	}
}

// If the file was replaced while disconnected, the inode check must
// yield ESTALE — the §6 stale file handle.
func TestRecoveryDetectsReplacedFile(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	a := New(Config{Sleep: noSleep, MaxRetries: 8})
	a.MountFS("/srv", cli)

	if err := vfs.WriteFile(a, "/srv/f", []byte("version one"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := a.Open("/srv/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	// Replace the file server-side (unlink + recreate = new inode).
	if err := b.srv.FS().Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(b.srv.FS(), "/f", []byte("version two"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := f.Pread(buf, 0); vfs.AsErrno(err) != vfs.ESTALE {
		t.Fatalf("read of replaced file = %v, want ESTALE", err)
	}
	// The handle stays stale forever.
	if _, err := f.Pread(buf, 0); vfs.AsErrno(err) != vfs.ESTALE {
		t.Errorf("second read = %v, want ESTALE", err)
	}
}

// If the file was deleted while disconnected, recovery also yields a
// stale handle.
func TestRecoveryDetectsDeletedFile(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	a := New(Config{Sleep: noSleep, MaxRetries: 8})
	a.MountFS("/srv", cli)
	if err := vfs.WriteFile(a, "/srv/f", []byte("doomed"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := a.Open("/srv/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := b.srv.FS().Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := f.Pread(buf, 0); vfs.AsErrno(err) != vfs.ESTALE {
		t.Fatalf("read of deleted file = %v, want ESTALE", err)
	}
}

// When the server never comes back, retries are bounded (§6: "users
// may place an upper limit on these retries").
func TestRecoveryGivesUpAfterMaxRetries(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	var sleeps atomic.Int32
	a := New(Config{
		MaxRetries: 3,
		Sleep:      func(time.Duration) { sleeps.Add(1) },
	})
	a.MountFS("/srv", cli)
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := a.Open("/srv/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.down() // server gone for good
	cli.Close()
	buf := make([]byte, 1)
	if _, err := f.Pread(buf, 0); vfs.AsErrno(err) != vfs.ETIMEDOUT {
		t.Fatalf("read with dead server = %v, want ETIMEDOUT", err)
	}
	if sleeps.Load() != 3 {
		t.Errorf("slept %d times, want 3 (bounded retries)", sleeps.Load())
	}
}

// Backoff doubles per attempt — exponentially increasing delay (§6).
func TestBackoffIsExponential(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	var delays []time.Duration
	a := New(Config{
		MaxRetries: 4,
		RetryBase:  10 * time.Millisecond,
		Sleep:      func(d time.Duration) { delays = append(delays, d) },
	})
	a.MountFS("/srv", cli)
	b.down()
	cli.Close()
	a.Stat("/srv/f") // fails through all retries
	if len(delays) != 4 {
		t.Fatalf("delays = %v", delays)
	}
	for i := 1; i < len(delays); i++ {
		if delays[i] != delays[i-1]*2 {
			t.Errorf("delay %d = %v, want double of %v", i, delays[i], delays[i-1])
		}
	}
}

// Path-level ops (stat, unlink, ...) also recover via client reconnect.
func TestPathOpsRecover(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	a := New(Config{Sleep: noSleep, MaxRetries: 8})
	a.MountFS("/srv", cli)
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	fi, err := a.Stat("/srv/f")
	if err != nil || fi.Size != 1 {
		t.Fatalf("stat after drop = %+v, %v", fi, err)
	}
}

func TestRenameAcrossMountsRejected(t *testing.T) {
	a := New(Config{Sleep: noSleep})
	a.MountFS("/a", localFS(t))
	a.MountFS("/b", localFS(t))
	if err := vfs.WriteFile(a, "/a/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Rename("/a/f", "/b/f"); vfs.AsErrno(err) != vfs.EINVAL {
		t.Errorf("cross-mount rename = %v, want EINVAL", err)
	}
}

func TestTrapEmulatorRoundTrip(t *testing.T) {
	tr := NewTrapEmulator()
	defer tr.Close()
	// Must not deadlock or race under parallel use from the adapter.
	for i := 0; i < 1000; i++ {
		tr.Trap(0)
		tr.Trap(8192)
	}
}

func TestTrapChargedPerOperation(t *testing.T) {
	tr := NewTrapEmulator()
	defer tr.Close()
	a := New(Config{Sleep: noSleep, Trap: tr})
	a.MountFS("/m", localFS(t))
	if err := vfs.WriteFile(a, "/m/f", make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	// Sanity: operations still work with the trap active; the latency
	// effect itself is measured in the Figure 3 benchmark.
	fi, err := a.Stat("/m/f")
	if err != nil || fi.Size != 8192 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
}

func TestAdapterStatFSAndErrors(t *testing.T) {
	a := New(Config{Sleep: noSleep})
	if _, err := a.StatFS(); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("statfs with no mounts = %v", err)
	}
	a.MountFS("/m", localFS(t))
	if _, err := a.StatFS(); err != nil {
		t.Errorf("statfs = %v", err)
	}
	if _, err := a.Open("/m/\x00bad", vfs.O_RDONLY, 0); err == nil {
		t.Error("malformed path accepted")
	}
	if _, err := a.ReadDir("/nothing/here"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("readdir unmounted = %v", err)
	}
}

func TestAdapterWorksThroughDSFSStyleStack(t *testing.T) {
	// adapter -> subtree -> local: three layers of the same interface,
	// demonstrating recursion without a network.
	base := localFS(t)
	if err := vfs.MkdirAll(base, "/vol/data", 0o755); err != nil {
		t.Fatal(err)
	}
	sub, err := vfs.Subtree(base, "/vol")
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Sleep: noSleep})
	a.MountFS("/data", sub)
	if err := vfs.WriteFile(a, "/data/data/f", []byte("deep"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(base, "/vol/data/f")
	if err != nil || string(got) != "deep" {
		t.Fatalf("stacked read = %q, %v", got, err)
	}
}

func TestSeqFileThroughAdapter(t *testing.T) {
	a := New(Config{Sleep: noSleep})
	a.MountFS("/m", localFS(t))
	f, err := a.Open("/m/f", vfs.O_RDWR|vfs.O_CREAT, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sf := vfs.NewSeqFile(f)
	fmt.Fprintf(sf, "line one\n")
	fmt.Fprintf(sf, "line two\n")
	if _, err := sf.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := sf.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "line one\n" {
		t.Errorf("seq read = %q", buf)
	}
	if off, _ := sf.Seek(0, 2); off != 18 {
		t.Errorf("seek end = %d", off)
	}
	sf.Close()
}

// The recovery protocol works through a whole DSFS mount: dropping the
// chirp connections under the abstraction heals transparently because
// the Dist delegates Reconnect to its members.
func TestRecoveryThroughDSFSMount(t *testing.T) {
	b := startBouncer(t)
	metaCli := b.client()
	defer metaCli.Close()
	dataCli := b.client()
	defer dataCli.Close()
	d, err := abstraction.NewDSFS(metaCli, "/tree", []abstraction.DataServer{
		{Name: "fs.sim", FS: dataCli, Dir: "/vol"},
	}, abstraction.Options{ClientID: "rec"})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Sleep: noSleep, MaxRetries: 8})
	a.MountFS("/dsfs", d)

	if err := vfs.WriteFile(a, "/dsfs/f", []byte("durable"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := a.Open("/dsfs/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sever both connections under the abstraction.
	metaCli.Close()
	dataCli.Close()
	buf := make([]byte, 7)
	n, err := f.Pread(buf, 0)
	if err != nil || string(buf[:n]) != "durable" {
		t.Fatalf("read through healed DSFS = %q, %v", buf[:n], err)
	}
	// Path-level ops heal too.
	metaCli.Close()
	if _, err := a.Stat("/dsfs/f"); err != nil {
		t.Errorf("stat through healed DSFS: %v", err)
	}
}

// Adapter counters make the transparent layer observable.
func TestAdapterStatsCounters(t *testing.T) {
	b := startBouncer(t)
	cli := b.client()
	defer cli.Close()
	a := New(Config{Sleep: noSleep, MaxRetries: 8})
	a.MountFS("/srv", cli)
	if err := vfs.WriteFile(a, "/srv/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Ops.Load() == 0 {
		t.Error("ops not counted")
	}
	// Force one recovery.
	cli.Close()
	if _, err := a.Stat("/srv/f"); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Reconnects.Load() == 0 {
		t.Error("reconnects not counted")
	}
	// Force an ESTALE.
	f, err := a.Open("/srv/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	b.srv.FS().Unlink("/f")
	buf := make([]byte, 1)
	f.Pread(buf, 0)
	if a.Stats.Stale.Load() == 0 {
		t.Error("stale handles not counted")
	}
	// Force a give-up.
	b.down()
	cli.Close()
	a.Stat("/srv/f")
	if a.Stats.GaveUp.Load() == 0 {
		t.Error("give-ups not counted")
	}
}
