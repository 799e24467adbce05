package pathutil

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNorm(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "/"},
		{"/", "/"},
		{"/a", "/a"},
		{"a", "/a"},
		{"/a/", "/a"},
		{"/a//b", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../..", "/"},
		{"/..", "/"},
		{"..", "/"},
		{"/a/b/../../../../c", "/c"},
		{"/a/b/c/..", "/a/b"},
		{"./x", "/x"},
		{"/a/b/./.", "/a/b"},
	}
	for _, c := range cases {
		got, err := Norm(c.in)
		if err != nil {
			t.Fatalf("Norm(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Norm(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormRejectsBadBytes(t *testing.T) {
	for _, in := range []string{"/a\x00b", "/a\nb", "\x00", "x\ny"} {
		if _, err := Norm(in); err == nil {
			t.Errorf("Norm(%q) accepted malformed path", in)
		}
	}
}

// Property: Norm output is always absolute, contains no "." or ".."
// components, and never two consecutive slashes.
func TestNormCanonicalProperty(t *testing.T) {
	f := func(s string) bool {
		n, err := Norm(s)
		if err != nil {
			return !strings.ContainsAny(s, "\x00\n") == false
		}
		if !strings.HasPrefix(n, "/") {
			return false
		}
		if strings.Contains(n, "//") {
			return false
		}
		for _, c := range Split(n) {
			if c == "." || c == ".." || c == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// confine is AppendHost's result as a string, without the NUL.
func confine(root, logical string) (string, error) {
	b, err := AppendHost(nil, root, logical)
	if err != nil {
		return "", err
	}
	return string(b[:len(b)-1]), nil
}

// Property: AppendHost never escapes the root, no matter the input.
func TestConfineNeverEscapes(t *testing.T) {
	const root = "/srv/export"
	f := func(s string) bool {
		hp, err := confine(root, s)
		if err != nil {
			return true // rejected outright is safe
		}
		return hp == root || strings.HasPrefix(hp, root+"/")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Directed adversarial cases.
	for _, in := range []string{"..", "/..", "/../../etc/passwd", "a/../../..", "/a/../../b", "....//....//etc"} {
		hp, err := confine(root, in)
		if err != nil {
			continue
		}
		if hp != root && !strings.HasPrefix(hp, root+"/") {
			t.Errorf("AppendHost escaped: %q -> %q", in, hp)
		}
	}
}

// AppendHost builds a normalized path's host path in the caller's
// buffer without allocating, under a root and under "/".
func TestAppendHostAllocationFree(t *testing.T) {
	var buf [512]byte
	for _, c := range []struct{ root, logical, want string }{
		{"/srv/export", "/a/b/d.txt", "/srv/export/a/b/d.txt"},
		{"/srv/export", "/", "/srv/export"},
		{"/", "/a/b", "/a/b"},
		{"/", "/", "/"},
	} {
		if hp, err := confine(c.root, c.logical); err != nil || hp != c.want {
			t.Errorf("AppendHost(%q, %q) = %q, %v; want %q", c.root, c.logical, hp, err, c.want)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := AppendHost(buf[:0], c.root, c.logical); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AppendHost(%q, %q) into a large enough buffer allocates %.1f/op, want 0", c.root, c.logical, n)
		}
	}
}

func TestSplitJoin(t *testing.T) {
	if got := Split("/"); len(got) != 0 {
		t.Errorf("Split(/) = %v", got)
	}
	if got := Split("/a/b/c"); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("Split(/a/b/c) = %v", got)
	}
	if got := Join("a", "b"); got != "/a/b" {
		t.Errorf("Join = %q", got)
	}
	if got := Join(); got != "/" {
		t.Errorf("Join() = %q", got)
	}
}

func TestWithinRebase(t *testing.T) {
	cases := []struct {
		prefix, p string
		within    bool
		rest      string
	}{
		{"/", "/a/b", true, "/a/b"},
		{"/a", "/a", true, "/"},
		{"/a", "/a/b", true, "/b"},
		{"/a", "/ab", false, ""},
		{"/a/b", "/a", false, ""},
	}
	for _, c := range cases {
		if got := Within(c.prefix, c.p); got != c.within {
			t.Errorf("Within(%q,%q) = %v", c.prefix, c.p, got)
		}
		rest, ok := Rebase(c.prefix, c.p)
		if ok != c.within {
			t.Errorf("Rebase(%q,%q) ok = %v", c.prefix, c.p, ok)
		}
		if ok && rest != c.rest {
			t.Errorf("Rebase(%q,%q) = %q, want %q", c.prefix, c.p, rest, c.rest)
		}
	}
}

func TestDirBase(t *testing.T) {
	if Dir("/a/b") != "/a" || Dir("/a") != "/" || Dir("/") != "/" {
		t.Error("Dir wrong")
	}
	if Base("/a/b") != "b" || Base("/") != "/" {
		t.Error("Base wrong")
	}
	if !IsRoot("/") || IsRoot("/a") {
		t.Error("IsRoot wrong")
	}
}
