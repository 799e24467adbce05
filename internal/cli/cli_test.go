package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tss/internal/stackspec"
	"tss/internal/vfs"
)

// TestVerbsOnAnyStack runs the verb table on a local directory with a
// working directory, as tssh does: relative paths resolve against it
// and transfers stream through the copy engine.
func TestVerbsOnAnyStack(t *testing.T) {
	fs, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &stackspec.Stack{FS: fs, Servers: 1}
	var out bytes.Buffer
	e := &Env{FS: fs, Cwd: "/d", Out: &out,
		Stack: func(p string) (*stackspec.Stack, string, error) { return st, p, nil }}
	do := func(line string) string {
		t.Helper()
		f := strings.Fields(line)
		run, args, err := Lookup(f[0], f[1:])
		if err == nil {
			out.Reset()
			err = run(e, args)
		}
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return out.String()
	}
	local := filepath.Join(t.TempDir(), "up")
	if err := os.WriteFile(local, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	do("mkdir /d")
	do("put f " + local)
	if got := do("cat /d/f"); got != "payload" {
		t.Errorf("cat = %q", got)
	}
	if got := do("ls"); got != "- f\n" {
		t.Errorf("ls = %q", got)
	}
	do("mv f g")
	if got := do("stat g"); !strings.HasPrefix(got, "file g size=7 ") {
		t.Errorf("stat = %q", got)
	}
	if got := do("statfs"); !strings.HasSuffix(got, "over 1 servers\n") {
		t.Errorf("statfs = %q", got)
	}
	down := filepath.Join(t.TempDir(), "down")
	do("get ../d/g " + down)
	if data, err := os.ReadFile(down); err != nil || string(data) != "payload" {
		t.Errorf("get = %q, %v", data, err)
	}
	do("rm g")
	do("rmdir /d")

	// A stack without the part a verb needs says so.
	for _, line := range []string{"whoami", "getacl /", "scrub", "fsck -remove-orphans"} {
		f := strings.Fields(line)
		run, args, err := Lookup(f[0], f[1:])
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if err := run(e, args); err == nil || !strings.Contains(err.Error(), "not a") {
			t.Errorf("%s on a local stack: %v", line, err)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, _, err := Lookup("frobnicate", nil); err == nil {
		t.Error("unknown verb accepted")
	}
	if _, _, err := Lookup("ls", []string{"-repair", "h:1"}); err == nil {
		t.Error("ls accepted scrub's flag")
	}
	run, rest, err := Lookup("scrub", []string{"-repair", "-algo", "sha256", "mirror:(a:1,b:1)", "/sub"})
	if err != nil || len(rest) != 2 || rest[0] != "mirror:(a:1,b:1)" {
		t.Fatalf("scrub flags: rest %q, %v", rest, err)
	}
	if err := run(&Env{}, []string{"/a", "/b"}); err == nil || !strings.Contains(err.Error(), "usage: scrub") {
		t.Errorf("two dirs to scrub: %v", err)
	}
}
