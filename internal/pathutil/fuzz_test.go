package pathutil

import (
	"strings"
	"testing"
)

// FuzzConfine is the software-chroot escape hunt: for any
// client-supplied logical path, a confined result must be the root
// itself or a strict descendant of it, and the mapped suffix must be
// free of "." and ".." segments. A counterexample here is a directory
// traversal bug in every exported server.
func FuzzConfine(f *testing.F) {
	f.Add(uint8(0), "/")
	f.Add(uint8(0), "/../../etc/passwd")
	f.Add(uint8(0), "a/../../..//b")
	f.Add(uint8(1), "/.././..")
	f.Add(uint8(1), "/a/b/../../../../root/.ssh/id_rsa")
	f.Add(uint8(2), "..\\..\\windows")
	f.Add(uint8(0), "/a/./b//c/")
	f.Add(uint8(0), "/\x00/etc")
	f.Fuzz(func(t *testing.T, rootSel uint8, logical string) {
		// AppendHost's contract requires a well-formed host root; the
		// adversary controls only the logical path.
		roots := []string{"/srv/tss/export", "/", "/tmp"}
		root := roots[int(rootSel)%len(roots)]
		b, err := AppendHost(nil, root, logical)
		if err != nil {
			return
		}
		if len(b) == 0 || b[len(b)-1] != 0 || strings.IndexByte(string(b[:len(b)-1]), 0) >= 0 {
			t.Fatalf("AppendHost(%q, %q) = %q is not one NUL-terminated path", root, logical, b)
		}
		host := string(b[:len(b)-1])
		var rest string
		if root == "/" {
			rest = host
		} else {
			if host != root && !strings.HasPrefix(host, root+"/") {
				t.Fatalf("AppendHost(%q, %q) = %q escapes the root", root, logical, host)
			}
			rest = strings.TrimPrefix(host, root)
		}
		for _, seg := range strings.Split(rest, "/") {
			if seg == "." || seg == ".." {
				t.Fatalf("AppendHost(%q, %q) = %q retains a %q segment", root, logical, host, seg)
			}
		}
		// The logical view must agree: every accepted path normalizes
		// to something Within "/" maps back under the root.
		norm, err := Norm(logical)
		if err != nil {
			t.Fatalf("AppendHost accepted %q but Norm rejects it: %v", logical, err)
		}
		if !strings.HasPrefix(norm, "/") {
			t.Fatalf("Norm(%q) = %q is not absolute", logical, norm)
		}
	})
}
