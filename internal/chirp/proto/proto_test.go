package proto

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tss/internal/vfs"
)

func TestEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		e := Escape(s)
		if strings.ContainsAny(e, " \t\n\r\x00") {
			return false
		}
		u, err := Unescape(e)
		return err == nil && u == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnescapeRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"%", "%2", "%zz", "a%q1"} {
		if _, err := Unescape(bad); err == nil {
			t.Errorf("Unescape(%q) accepted malformed input", bad)
		}
	}
}

func TestStatRoundTrip(t *testing.T) {
	f := func(name string, size int64, mode uint32, mtime int64, inode uint64, isDir bool) bool {
		if size < 0 {
			size = -size
		}
		fi := vfs.FileInfo{Name: name, Size: size, Mode: mode & 0o7777, MTime: mtime, Inode: inode, IsDir: isDir}
		got, err := UnmarshalStat([]byte(MarshalStat(fi)))
		return err == nil && got == fi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDirEntryRoundTrip(t *testing.T) {
	f := func(name string, isDir bool) bool {
		e := vfs.DirEntry{Name: name, IsDir: isDir}
		got, err := ReadDirEntries(bufio.NewReader(strings.NewReader(MarshalDirEntry(e)+"\n")), 1)
		return err == nil && len(got) == 1 && got[0] == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Every encodable request must parse back to an identical structure.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Verb: "open", Path: "/a file/x", Flags: 577, Mode: 0o644},
		{Verb: "pread", FD: 3, Length: 8192, Offset: 65536},
		{Verb: "pwrite", FD: 3, Length: 100, Offset: 0},
		{Verb: "fstat", FD: 9},
		{Verb: "fsync", FD: 9},
		{Verb: "ftruncate", FD: 9, Size: 12345},
		{Verb: "close", FD: 9},
		{Verb: "stat", Path: "/x"},
		{Verb: "unlink", Path: "/x y"},
		{Verb: "rename", Path: "/old name", Path2: "/new name"},
		{Verb: "mkdir", Path: "/d", Mode: 0o755},
		{Verb: "rmdir", Path: "/d"},
		{Verb: "getdir", Path: "/"},
		{Verb: "getfile", Path: "/big"},
		{Verb: "putfile", Path: "/big", Mode: 0o600, Length: 1 << 20},
		{Verb: "truncate", Path: "/f", Size: 77},
		{Verb: "chmod", Path: "/f", Mode: 0o700},
		{Verb: "getacl", Path: "/d"},
		{Verb: "setacl", Path: "/d", Subject: "hostname:*.nd.edu", Rights: "v(rwla)"},
		{Verb: "statfs"},
		{Verb: "whoami"},
	}
	for _, q := range reqs {
		line, err := q.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", q.Verb, err)
		}
		got, err := ParseRequest(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Errorf("round trip %s:\n in: %+v\nout: %+v\nline: %q", q.Verb, q, got, line)
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	for _, bad := range []string{
		"", "bogus /x", "open /x", "open /x 1 2 3 4", "pread x y z",
		"stat", "rename /a", "setacl /d subj",
	} {
		if _, err := ParseRequest(bad); err == nil {
			t.Errorf("ParseRequest(%q) accepted malformed request", bad)
		}
	}
}

func TestRequestPathsWithSpacesSurvive(t *testing.T) {
	f := func(p1, p2 string) bool {
		q := &Request{Verb: "rename", Path: p1, Path2: p2}
		line, err := q.Encode()
		if err != nil {
			return false
		}
		got, err := ParseRequest(line)
		return err == nil && got.Path == p1 && got.Path2 == p2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCode(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("42\n-13\nxyz\n"))
	if v, err := ReadCode(r); err != nil || v != 42 {
		t.Errorf("ReadCode = %d, %v", v, err)
	}
	if v, err := ReadCode(r); err != nil || v != -13 {
		t.Errorf("ReadCode = %d, %v", v, err)
	}
	if _, err := ReadCode(r); err == nil {
		t.Error("ReadCode accepted garbage")
	}
}

func TestErrnoWireMapping(t *testing.T) {
	if vfs.Code(nil) != 0 {
		t.Error("Code(nil) != 0")
	}
	if vfs.Code(vfs.ENOENT) != -2 {
		t.Errorf("Code(ENOENT) = %d", vfs.Code(vfs.ENOENT))
	}
	if err := vfs.FromCode(-2); err != vfs.ENOENT {
		t.Errorf("FromCode(-2) = %v", err)
	}
	if err := vfs.FromCode(5); err != nil {
		t.Errorf("FromCode(5) = %v, want nil", err)
	}
}

// ReadLine returns lines up to MaxLineLen whatever the reader's buffer
// size, strips the terminator, and refuses a longer line.
func TestReadLine(t *testing.T) {
	long := strings.Repeat("a", 5000) // longer than the 4 KiB buffer
	atMax := strings.Repeat("b", MaxLineLen-1)
	in := "short\r\n" + long + "\n" + atMax + "\n" + atMax + "c\n"
	r := bufio.NewReaderSize(strings.NewReader(in), 4096)
	for _, want := range []string{"short", long, atMax} {
		line, err := ReadLine(r)
		if err != nil || string(line) != want {
			t.Fatalf("ReadLine = %d bytes, %v; want %d bytes", len(line), err, len(want))
		}
	}
	if line, err := ReadLine(r); err == nil {
		t.Errorf("ReadLine accepted a %d-byte line, bound %d", len(line), MaxLineLen)
	}
}
