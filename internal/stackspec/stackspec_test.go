package stackspec

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

func chirpSpec(addr, dir string) Spec { return Spec{Scheme: "chirp", Addr: addr, Dir: dir} }

func TestParse(t *testing.T) {
	dsfs := Spec{Scheme: "dsfs", Addr: "m:1", Dir: "/tree", Data: []Server{
		{Name: "n0", Addr: "a:2", Dir: "/vol"}, {Name: "n1", Addr: "[::1]:3", Dir: "/"},
	}}
	for in, want := range map[string]Spec{
		"h:9094":              chirpSpec("h:9094", "/"),
		"h:9094/a/../b//":     chirpSpec("h:9094", "/b"),
		"chirp://h:9094/data": chirpSpec("h:9094", "/data"),
		"chirp://[::1]:9094":  chirpSpec("[::1]:9094", "/"),
		"dsfs://m:1/tree?data=n0=a:2/vol,n1=[::1]:3": dsfs,
		"mirror:(a:1,chirp://b:2/x)": {Scheme: "mirror", Replicas: []Spec{
			chirpSpec("a:1", "/"), chirpSpec("b:2", "/x"),
		}},
		// A data list continues while the next element starts name=.
		"mirror:(dsfs://m:1/tree?data=n0=a:2/vol,n1=[::1]:3,mirror:(c:4))": {Scheme: "mirror", Replicas: []Spec{
			dsfs, {Scheme: "mirror", Replicas: []Spec{chirpSpec("c:4", "/")}},
		}},
	} {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", in, got, want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"", "h", "h:", "h:1:2", "chirp://", "/local/path", "h:1,h:2",
		"dsfs://m:1/tree", "dsfs://m:1?data=", "dsfs://m:1?data=a:2/vol", "dsfs://m:1?data==a:2",
		"mirror:(", "mirror:()", "mirror:(a:1", "mirror:(a:1)x", "mirror:(mirror:(a:1)x)",
		"n=h:1", "h:1/a\x00b",
	} {
		if sp, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", in, sp)
		}
	}
	if _, err := ParseServer("n0=h:1/gems,n1=h:2", "/gems"); err == nil {
		t.Error("ParseServer accepted two servers")
	}
	if got, err := ParseServer("d0=h:1", "/gems"); err != nil || got != (Server{"d0", "h:1", "/gems"}) {
		t.Errorf("ParseServer default dir = %+v, %v", got, err)
	}
}

func TestCut(t *testing.T) {
	for in, want := range map[string][2]string{
		"h:9094:/a/b":                   {"h:9094", "/a/b"},
		"chirp://h:9094/d:/a:/b":        {"h:9094", "/a:/b"},
		"mirror:(a:1,b:2):/f":           {"", "/f"},
		"dsfs://m:1?data=n0=a:2/vol:/f": {"m:1", "/f"},
		"relative/file.txt":             {},
		"/abs/local:/not-a-spec":        {},
		"C:/windows-ish":                {},
	} {
		sp, path, ok := Cut(in)
		if ok != (want[1] != "") || sp.Addr != want[0] || path != want[1] {
			t.Errorf("Cut(%q) = %+v %q %v, want addr %q path %q", in, sp, path, ok, want[0], want[1])
		}
	}
}

// TestBuild assembles each scheme over in-process servers. Stacks that
// name the same server share one client.
func TestBuild(t *testing.T) {
	nw := netsim.NewNetwork()
	for _, name := range []string{"s0:1", "s1:1"} {
		srv, err := chirp.NewServer(t.TempDir(), chirp.ServerConfig{
			Name: name, Owner: "hostname:client.sim",
			Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := nw.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { l.Close() })
	}
	dials := 0
	b := &Builder{Dial: func(addr string) (*chirp.Client, error) {
		dials++
		return chirp.Dial(chirp.ClientConfig{
			Dial:        func() (net.Conn, error) { return nw.DialFrom("client.sim", addr, netsim.Loopback) },
			Credentials: []auth.Credential{auth.HostnameCredential{}},
			Timeout:     5 * time.Second,
		})
	}}
	defer b.Close()
	build := func(spec string) *Stack {
		t.Helper()
		sp, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := b.Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	d := build("dsfs://s0:1/tree?data=n0=s0:1/vol,n1=s1:1/vol")
	if d.Dist == nil || d.Servers != 2 {
		t.Fatalf("dsfs stack = %+v", d)
	}
	if err := vfs.WriteFile(d.FS, "/f", []byte("spread"), 0o644); err != nil {
		t.Fatal(err)
	}
	if stub, err := d.Dist.ReadStub("/f"); err != nil || (stub.Server != "n0" && stub.Server != "n1") {
		t.Errorf("stub = %+v, %v; want a server named in the spec", stub, err)
	}

	// Open finds the tree Build started, and creates nothing where a
	// misspelt spec names none.
	open := func(spec string) error {
		t.Helper()
		sp, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = b.Open(sp)
		return err
	}
	if err := open("dsfs://s0:1/tree?data=n0=s0:1/vol,n1=s1:1/vol"); err != nil {
		t.Errorf("open of an existing tree: %v", err)
	}
	if err := open("dsfs://s0:1/typo?data=n0=s1:1/typo"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("open of a missing tree = %v, want ENOENT", err)
	}
	for _, srv := range d.Dist.Servers() {
		if _, err := srv.FS.Stat("/typo"); vfs.AsErrno(err) != vfs.ENOENT {
			t.Errorf("%s: stat /typo after a failed open = %v, want ENOENT", srv.Name, err)
		}
	}

	m := build("mirror:(s0:1/vol,chirp://s1:1/vol)")
	if m.Mirror == nil || m.Servers != 2 {
		t.Fatalf("mirror stack = %+v", m)
	}
	if err := vfs.WriteFile(m.FS, "/g", []byte("twice"), 0o644); err != nil {
		t.Fatal(err)
	}
	sub := build("s1:1/vol")
	if sub.Client == nil || sub.Prefix != "/vol" {
		t.Fatalf("chirp stack = %+v", sub)
	}
	if data, err := vfs.ReadFile(sub.FS, "/g"); err != nil || string(data) != "twice" {
		t.Errorf("replica /g = %q, %v", data, err)
	}
	if dials != 2 {
		t.Errorf("%d dials for two servers", dials)
	}
	if _, err := b.Build(Spec{Scheme: "stripe"}); err == nil {
		t.Error("built an unknown scheme")
	}
}

// FuzzParseSpec: specs come from the command line. The parser never
// panics, and every spec it accepts names non-empty addresses and
// absolute directories all the way down. The checked-in corpus
// (testdata/fuzz/FuzzParseSpec) holds every example of the usage texts
// and README.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		if sp, err := Parse(s); err == nil {
			checkSpec(t, s, sp)
		}
		if sp, path, ok := Cut(s); ok {
			checkSpec(t, s, sp)
			if !strings.HasPrefix(path, "/") {
				t.Errorf("Cut(%q) path %q is not absolute", s, path)
			}
		}
		if srv, err := ParseServer(s, "/gems"); err == nil {
			checkServer(t, s, srv)
		}
	})
}

func checkSpec(t *testing.T, in string, sp Spec) {
	t.Helper()
	switch sp.Scheme {
	case "chirp", "dsfs":
		checkServer(t, in, Server{Name: sp.Scheme, Addr: sp.Addr, Dir: sp.Dir})
		if sp.Scheme == "dsfs" && len(sp.Data) == 0 {
			t.Errorf("%q: dsfs without data servers", in)
		}
		for _, d := range sp.Data {
			checkServer(t, in, d)
		}
	case "mirror":
		if len(sp.Replicas) == 0 {
			t.Errorf("%q: mirror without replicas", in)
		}
		for _, r := range sp.Replicas {
			checkSpec(t, in, r)
		}
	default:
		t.Errorf("%q: scheme %q", in, sp.Scheme)
	}
}

func checkServer(t *testing.T, in string, s Server) {
	t.Helper()
	if s.Name == "" || s.Addr == "" || !strings.HasPrefix(s.Dir, "/") {
		t.Errorf("%q: server %s", in, fmt.Sprintf("%+v", s))
	}
}
