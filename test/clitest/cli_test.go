// Package clitest builds the real command binaries and drives them
// end to end over TCP loopback: a catalog, a file server reporting to
// it, and the tss client tool on a server, a DSFS and a mirror — the
// full §4 deployment story as a test.
package clitest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tss-cli-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, tool := range []string{"chirpd", "catalogd", "tss", "tssh", "gems", "tssticket"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "tss/cmd/"+tool)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n", tool, err)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func bin(name string) string { return filepath.Join(binDir, name) }

// freePort reserves a TCP port on loopback.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches a binary and kills it at cleanup.
func startDaemon(t *testing.T, name string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// waitTCP blocks until the address accepts connections.
func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never came up", addr)
}

// commandTimeout bounds every command a test runs: one that hangs is
// killed and fails its test with errHung instead of stalling the suite.
const commandTimeout = 30 * time.Second

var errHung = fmt.Errorf("killed after %v", commandTimeout)

// runCmd runs a binary with stdin and returns its combined output.
func runCmd(stdin, name string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin(name), args...)
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		err = errHung
	}
	return string(out), err
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := runCmd("", name, args...)
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return out
}

func runExpectFail(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := runCmd("", name, args...)
	if err == nil || err == errHung {
		t.Fatalf("%s %v did not fail on its own (%v):\n%s", name, args, err, out)
	}
	return out
}

func TestFileServerAndClientTool(t *testing.T) {
	root := t.TempDir()
	addr := freePort(t)
	user := os.Getenv("USER")
	if user == "" {
		user = "root"
	}
	startDaemon(t, "chirpd",
		"-root", root,
		"-addr", addr,
		"-acl", "hostname:localhost=rwlda",
		"-acl", "unix:"+user+"=rwlda",
	)
	waitTCP(t, addr)

	// whoami: loopback resolves to the localhost subject.
	who := run(t, "tss", "whoami", addr)
	if !strings.Contains(who, "hostname:localhost") && !strings.Contains(who, "unix:") {
		t.Errorf("whoami = %q", who)
	}

	// put / ls / cat / get / stat round trip.
	local := filepath.Join(t.TempDir(), "up.txt")
	if err := os.WriteFile(local, []byte("over the wire\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, "tss", "mkdir", addr, "/inbox")
	run(t, "tss", "put", addr, "/inbox/up.txt", local)
	if ls := run(t, "tss", "ls", addr, "/inbox"); !strings.Contains(ls, "up.txt") {
		t.Errorf("ls = %q", ls)
	}
	if cat := run(t, "tss", "cat", addr, "/inbox/up.txt"); cat != "over the wire\n" {
		t.Errorf("cat = %q", cat)
	}
	down := filepath.Join(t.TempDir(), "down.txt")
	run(t, "tss", "get", addr, "/inbox/up.txt", down)
	got, _ := os.ReadFile(down)
	if string(got) != "over the wire\n" {
		t.Errorf("get = %q", got)
	}
	if st := run(t, "tss", "stat", addr, "/inbox/up.txt"); !strings.Contains(st, "size=14") {
		t.Errorf("stat = %q", st)
	}

	// ACL management through the tool.
	run(t, "tss", "setacl", addr, "/inbox", "hostname:*.collab.org", "rl")
	if acl := run(t, "tss", "getacl", addr, "/inbox"); !strings.Contains(acl, "hostname:*.collab.org rl") {
		t.Errorf("getacl = %q", acl)
	}

	// statfs and cleanup paths.
	if sf := run(t, "tss", "statfs", addr); !strings.Contains(sf, "total") {
		t.Errorf("statfs = %q", sf)
	}
	run(t, "tss", "mv", addr, "/inbox/up.txt", "/inbox/moved.txt")
	run(t, "tss", "rm", addr, "/inbox/moved.txt")
	run(t, "tss", "rmdir", addr, "/inbox")
	runExpectFail(t, "tss", "cat", addr, "/inbox/moved.txt")
}

func TestCatalogReporting(t *testing.T) {
	udpAddr := freePort(t)
	httpAddr := freePort(t)
	startDaemon(t, "catalogd", "-udp", udpAddr, "-http", httpAddr)

	root := t.TempDir()
	fsAddr := freePort(t)
	startDaemon(t, "chirpd",
		"-root", root,
		"-addr", fsAddr,
		"-name", "cli-test-server",
		"-catalog", udpAddr,
		"-catalog-interval", "100ms",
	)
	waitTCP(t, fsAddr)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/")
		if err == nil {
			buf := make([]byte, 1<<16)
			n, _ := resp.Body.Read(buf)
			resp.Body.Close()
			if strings.Contains(string(buf[:n]), "cli-test-server") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never appeared in the catalog listing")
		}
		time.Sleep(100 * time.Millisecond)
	}
	// JSON and classads formats also answer.
	for _, path := range []string{"/json", "/classads"} {
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<16)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		if !strings.Contains(string(buf[:n]), "cli-test-server") {
			t.Errorf("%s missing server: %q", path, buf[:n])
		}
	}
}

// startServer launches a file server exporting root that admits the
// local user, and returns its address once it accepts connections.
func startServer(t *testing.T, root string) string {
	t.Helper()
	user := os.Getenv("USER")
	if user == "" {
		user = "root"
	}
	addr := freePort(t)
	startDaemon(t, "chirpd", "-root", root, "-addr", addr,
		"-acl", "hostname:localhost=rwlda", "-acl", "unix:"+user+"=rwlda")
	waitTCP(t, addr)
	return addr
}

// startServers launches n file servers that admit the local user.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, startServer(t, t.TempDir()))
	}
	return addrs
}

func TestTssAssemblesDSFS(t *testing.T) {
	addrs := startServers(t, 3)
	dsfs := func(names ...string) string {
		var data []string
		for i, n := range names {
			data = append(data, n+"="+addrs[i]+"/vol")
		}
		return "dsfs://" + addrs[0] + "/tree?data=" + strings.Join(data, ",")
	}
	spec := dsfs("n0", "n1", "n2")
	tss := func(verb string, args ...string) string {
		return run(t, "tss", append([]string{verb, spec}, args...)...)
	}

	local := filepath.Join(t.TempDir(), "chunk.bin")
	if err := os.WriteFile(local, []byte(strings.Repeat("spread me ", 100)), 0o644); err != nil {
		t.Fatal(err)
	}
	tss("mkdir", "/run1")
	tss("put", "/run1/chunk.bin", local)
	if ls := tss("ls", "/run1"); !strings.Contains(ls, "chunk.bin") {
		t.Errorf("tss ls = %q", ls)
	}
	if st := tss("stat", "/run1/chunk.bin"); !strings.Contains(st, "data on n") {
		t.Errorf("tss stat = %q", st)
	}
	out := filepath.Join(t.TempDir(), "back.bin")
	tss("get", "/run1/chunk.bin", out)
	got, _ := os.ReadFile(out)
	if len(got) != 1000 {
		t.Errorf("tss get = %d bytes", len(got))
	}
	if fsck := tss("fsck"); !strings.Contains(fsck, "dangling=0 orphaned=0") {
		t.Errorf("tss fsck = %q", fsck)
	}
	if sf := tss("statfs"); !strings.Contains(sf, "over 3 servers") {
		t.Errorf("tss statfs = %q", sf)
	}

	// Checked under other server names, every stub points nowhere and
	// the data file looks orphaned: fsck fails and reclaims nothing.
	if fsck := runExpectFail(t, "tss", "fsck", "-remove-orphans", dsfs("m0", "m1", "m2")); !strings.Contains(fsck, "unreachable=1") {
		t.Errorf("misnamed fsck = %q", fsck)
	}
	if cat := tss("cat", "/run1/chunk.bin"); len(cat) != 1000 {
		t.Errorf("cat after misnamed fsck = %d bytes", len(cat))
	}

	tss("rm", "/run1/chunk.bin")
	tss("rmdir", "/run1")
	if fsck := run(t, "tss", "fsck", "-remove-dangling", "-remove-orphans", spec); !strings.Contains(fsck, "dangling=0 orphaned=0") {
		t.Errorf("tss fsck -remove-dangling -remove-orphans = %q", fsck)
	}
}

// A check or a read of a misspelt DSFS spec fails with ENOENT and
// leaves no empty tree or data directory behind; only a write starts a
// tree.
func TestTssFsckMisspeltSpec(t *testing.T) {
	metaRoot, dataRoot := t.TempDir(), t.TempDir()
	meta, data := startServer(t, metaRoot), startServer(t, dataRoot)
	typo := "dsfs://" + meta + "/typo?data=n0=" + data + "/vol"
	for _, verb := range [][]string{{"fsck"}, {"ls"}, {"stat", "/f"}} {
		out := runExpectFail(t, "tss", append([]string{verb[0], typo}, verb[1:]...)...)
		if !strings.Contains(out, "no such file or directory") {
			t.Errorf("tss %s on a misspelt spec = %q, want ENOENT", verb[0], out)
		}
	}
	for _, dir := range []string{filepath.Join(metaRoot, "typo"), filepath.Join(dataRoot, "vol")} {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s exists after a check of a misspelt spec (%v)", dir, err)
		}
	}
	run(t, "tss", "mkdir", typo, "/new")
	if fsck := run(t, "tss", "fsck", typo); !strings.Contains(fsck, "dangling=0 orphaned=0") {
		t.Errorf("fsck of the tree mkdir started = %q", fsck)
	}
}

// Mounting a misspelt DSFS spec in tssh fails with ENOENT, says how to
// start a tree, and leaves no empty tree or data directory behind; the
// tree tss mkdir starts then mounts.
func TestTsshMountMisspeltSpec(t *testing.T) {
	metaRoot, dataRoot := t.TempDir(), t.TempDir()
	meta, data := startServer(t, metaRoot), startServer(t, dataRoot)
	typo := "dsfs://" + meta + "/typo?data=n0=" + data + "/vol"
	out, err := runCmd("mount /d "+typo+"\nls /d\n", "tssh")
	if err == nil || err == errHung {
		t.Fatalf("tssh mount of a misspelt spec did not fail on its own (%v):\n%s", err, out)
	}
	if !strings.Contains(out, "no such file or directory") || !strings.Contains(out, "tss mkdir SPEC DIR") {
		t.Errorf("tssh mount of a misspelt spec = %q, want ENOENT and how to start a tree", out)
	}
	for _, dir := range []string{filepath.Join(metaRoot, "typo"), filepath.Join(dataRoot, "vol")} {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s exists after a mount of a misspelt spec (%v)", dir, err)
		}
	}
	run(t, "tss", "mkdir", typo, "/first")
	if out, err := runCmd("mount /d "+typo+"\nls /d\n", "tssh"); err != nil || !strings.Contains(out, "first") {
		t.Errorf("tssh mount and ls of the tree tss mkdir started = %v:\n%s", err, out)
	}
}

// A mirror over three servers with one replica overwritten behind its
// back: scrub finds the divergence, -repair rewrites the odd copy from
// the majority, and a second scrub is clean.
func TestTssScrubRepairsMirror(t *testing.T) {
	addrs := startServers(t, 3)
	mirror := "mirror:(" + strings.Join(addrs, ",") + ")"
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good"), filepath.Join(dir, "bad")
	os.WriteFile(good, []byte("the agreed copy"), 0o644)
	os.WriteFile(bad, []byte("a diverged copy"), 0o644)
	run(t, "tss", "put", mirror, "/f", good)
	run(t, "tss", "put", addrs[1], "/f", bad)

	if out := runExpectFail(t, "tss", "scrub", mirror); !strings.Contains(out, "1 divergent") {
		t.Errorf("scrub = %q", out)
	}
	if out := run(t, "tss", "scrub", "-repair", mirror); !strings.Contains(out, "1 divergent, 1 replica copies repaired") {
		t.Errorf("scrub -repair = %q", out)
	}
	if out := run(t, "tss", "scrub", mirror); !strings.Contains(out, "0 divergent") {
		t.Errorf("second scrub = %q", out)
	}
	if cat := run(t, "tss", "cat", addrs[1], "/f"); cat != "the agreed copy" {
		t.Errorf("repaired replica = %q", cat)
	}

	// A parallel copy from one of the replica servers into the mirror:
	// the mirror takes positional writes, so the source must not share
	// its transport.
	big := filepath.Join(dir, "big")
	os.WriteFile(big, []byte(strings.Repeat("0123456789abcdef", 3<<16)), 0o644)
	run(t, "tss", "put", addrs[0], "/big", big)
	run(t, "tss", "-P", "2", "-chunk", "1M", "-verify", "cp", addrs[0]+":/big", mirror+":/copy")
	if sum, want := run(t, "tss", "sum", addrs[2], "/copy"), run(t, "tss", "sum", addrs[0], "/big"); sum != want {
		t.Errorf("copied replica sum %q, want %q", sum, want)
	}
	run(t, "tss", "rm", addrs[0], "/big")
	if out := run(t, "tss", "scrub", mirror); !strings.Contains(out, "2 files, 0 divergent") {
		t.Errorf("scrub after cp = %q", out)
	}
}

// A mirror of two directories on one server: both replicas are views
// of one client and its one connection. One copy is overwritten and
// backdated, so the newer agreed copy wins; -repair rewrites the odd
// copy through that connection, and a second scrub is clean.
func TestTssScrubRepairsOverOneServer(t *testing.T) {
	root := t.TempDir()
	addr := startServer(t, root)
	mirror := "mirror:(" + addr + "/a," + addr + "/b)"
	run(t, "tss", "mkdir", addr, "/a")
	run(t, "tss", "mkdir", addr, "/b")
	local := filepath.Join(t.TempDir(), "f")
	os.WriteFile(local, []byte(strings.Repeat("the agreed copy ", 40000)), 0o644)
	run(t, "tss", "put", mirror, "/f", local)
	odd := filepath.Join(root, "b", "f")
	if err := os.WriteFile(odd, []byte("a diverged copy"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(odd, old, old); err != nil {
		t.Fatal(err)
	}

	if out := run(t, "tss", "scrub", "-repair", mirror); !strings.Contains(out, "1 divergent, 1 replica copies repaired") {
		t.Errorf("scrub -repair = %q", out)
	}
	if out := run(t, "tss", "scrub", mirror); !strings.Contains(out, "0 divergent") {
		t.Errorf("second scrub = %q", out)
	}
	if got, err := os.ReadFile(odd); err != nil || len(got) != 16*40000 {
		t.Errorf("repaired copy = %d bytes, %v", len(got), err)
	}
}

// GEMS over two directories of one server: the replicator copies
// between two views of one client, and audit finds both replicas.
func TestGemsReplicatesOverOneServer(t *testing.T) {
	addr := startServers(t, 1)[0]
	base := []string{"-index", t.TempDir(), "-data", "d0=" + addr + "/a", "-data", "d1=" + addr + "/b"}
	gemsRun := func(stdin string, args ...string) string {
		out, err := runCmd(stdin, "gems", append(append([]string{}, base...), args...)...)
		if err != nil {
			t.Fatalf("gems %v: %v\n%s", args, err, out)
		}
		return out
	}
	gemsRun(strings.Repeat("trajectory bits ", 40000), "put", "sim042", "protein=villin")
	if r := gemsRun("", "replicate", "100000000"); !strings.Contains(r, "made 1 copies") {
		t.Errorf("replicate = %q", r)
	}
	if a := gemsRun("", "audit"); !strings.Contains(a, "1 records, 2 replicas: 0 missing, 0 corrupt") {
		t.Errorf("audit = %q", a)
	}
}

// The identity and ACL verbs reach the server behind a chirp spec
// rooted at a subdirectory, in tss and in a tssh mount.
func TestACLVerbsThroughSubtree(t *testing.T) {
	addr := startServers(t, 1)[0]
	sub := "chirp://" + addr + "/sub"
	run(t, "tss", "mkdir", addr, "/sub")
	run(t, "tss", "setacl", sub, "/", "hostname:*.collab.org", "rl")
	if acl := run(t, "tss", "getacl", addr, "/sub"); !strings.Contains(acl, "hostname:*.collab.org rl") {
		t.Errorf("getacl = %q", acl)
	}
	if who := run(t, "tss", "whoami", sub); !strings.Contains(who, "hostname:localhost") && !strings.Contains(who, "unix:") {
		t.Errorf("whoami = %q", who)
	}

	cmd := exec.Command(bin("tssh"))
	cmd.Stdin = strings.NewReader("mount /x " + sub + "\ncd /x\nwhoami\nsetacl . hostname:*.other.org rl\ngetacl /x\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tssh script failed: %v\n%s", err, out)
	}
	for _, want := range []string{"hostname:*.collab.org rl", "hostname:*.other.org rl"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("tssh output missing %q:\n%s", want, out)
		}
	}
	if acl := run(t, "tss", "getacl", addr, "/sub"); !strings.Contains(acl, "hostname:*.other.org rl") {
		t.Errorf("getacl after tssh setacl = %q", acl)
	}
}

func TestTsshScripted(t *testing.T) {
	addr := startServers(t, 1)[0]

	local := filepath.Join(t.TempDir(), "up.bin")
	if err := os.WriteFile(local, []byte("shell payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	down := filepath.Join(t.TempDir(), "down.bin")
	script := strings.Join([]string{
		"mount /srv chirp://" + addr,
		"mounts",
		"cd /srv",
		"mkdir docs",
		"put docs/up.bin " + local,
		"ls docs",
		"stat docs/up.bin",
		"cat docs/up.bin",
		"get docs/up.bin " + down,
		"mv docs/up.bin docs/renamed.bin",
		"rm docs/renamed.bin",
		"rmdir docs",
		"pwd",
		"statfs",
		"exit",
	}, "\n") + "\n"

	cmd := exec.Command(bin("tssh"))
	cmd.Stdin = strings.NewReader(script)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tssh script failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"mounted chirp://", "up.bin", "size=13", "shell payload", "/srv"} {
		if !strings.Contains(s, want) {
			t.Errorf("tssh output missing %q:\n%s", want, s)
		}
	}
	got, err := os.ReadFile(down)
	if err != nil || string(got) != "shell payload" {
		t.Errorf("get through shell = %q, %v", got, err)
	}
}

func TestGemsCLI(t *testing.T) {
	addrs := startServers(t, 2)
	indexDir := t.TempDir()
	base := []string{
		"-index", indexDir,
		"-data", "d0=" + addrs[0] + "/gems",
		"-data", "d1=" + addrs[1] + "/gems",
	}
	gemsRun := func(stdin string, args ...string) string {
		out, err := runCmd(stdin, "gems", append(append([]string{}, base...), args...)...)
		if err != nil {
			t.Fatalf("gems %v: %v\n%s", args, err, out)
		}
		return out
	}

	gemsRun("trajectory bits", "put", "sim042", "protein=villin", "temp=300")
	if q := gemsRun("", "query", "protein=villin"); !strings.Contains(q, "sim042") {
		t.Errorf("query = %q", q)
	}
	if got := gemsRun("", "get", "sim042"); got != "trajectory bits" {
		t.Errorf("get = %q", got)
	}
	if a := gemsRun("", "audit"); !strings.Contains(a, "0 missing") {
		t.Errorf("audit = %q", a)
	}
	if r := gemsRun("", "replicate", "1000000"); !strings.Contains(r, "made 1 copies") {
		t.Errorf("replicate = %q", r)
	}
	// The journal persists across invocations (each CLI call reopens it).
	if l := gemsRun("", "list"); !strings.Contains(l, "2 replicas") {
		t.Errorf("list = %q", l)
	}
	// Wipe the index and recover from the pool.
	os.RemoveAll(indexDir)
	if rec := gemsRun("", "recover"); !strings.Contains(rec, "recovered 1 records") {
		t.Errorf("recover = %q", rec)
	}
	if got := gemsRun("", "get", "sim042"); got != "trajectory bits" {
		t.Errorf("get after recover = %q", got)
	}
	gemsRun("", "rm", "sim042")
	if l := gemsRun("", "list"); strings.Contains(l, "sim042") {
		t.Errorf("rm did not remove: %q", l)
	}
}

// The full ticket flow through the CLIs: keygen, issue, a server that
// trusts the issuer, and a client authenticating by ticket alone.
func TestTicketFlow(t *testing.T) {
	dir := t.TempDir()
	issuerFile := filepath.Join(dir, "issuer.json")
	out := run(t, "tssticket", "keygen", issuerFile)
	if !strings.Contains(out, "public key:") {
		t.Fatalf("keygen output = %q", out)
	}
	pub := strings.TrimSpace(run(t, "tssticket", "pubkey", issuerFile))

	ticketFile := filepath.Join(dir, "collab.ticket")
	run(t, "tssticket", "issue", issuerFile, "collab-7", "1h", ticketFile)
	if show := run(t, "tssticket", "show", ticketFile); !strings.Contains(show, "ticket:collab-7") {
		t.Errorf("show = %q", show)
	}

	addr := freePort(t)
	startDaemon(t, "chirpd",
		"-root", t.TempDir(), "-addr", addr,
		"-acl", "ticket:collab-*=rwl",
		"-ticket-issuer", pub,
	)
	waitTCP(t, addr)

	// Ticket-only rights: whoami shows the ticket subject, write works.
	who := run(t, "tss", "-ticket", ticketFile, "whoami", addr)
	if !strings.Contains(who, "ticket:collab-7") {
		t.Errorf("whoami = %q", who)
	}
	local := filepath.Join(dir, "f.txt")
	os.WriteFile(local, []byte("ticketed"), 0o644)
	run(t, "tss", "-ticket", ticketFile, "mkdir", addr, "/drop")
	run(t, "tss", "-ticket", ticketFile, "put", addr, "/drop/f.txt", local)
	if cat := run(t, "tss", "-ticket", ticketFile, "cat", addr, "/drop/f.txt"); cat != "ticketed" {
		t.Errorf("cat = %q", cat)
	}
	// Without the ticket the client falls back to hostname/unix, which
	// this server's ACL does not admit.
	runExpectFail(t, "tss", "cat", addr, "/drop/f.txt")
}
