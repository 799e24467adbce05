package vfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// osTree builds the tree TestLocalFSMatchesOS compares on: an empty
// directory, a directory long enough to take several getdents64 calls,
// names that need escaping on the wire, a subdirectory, a symlink, and a
// path longer than LocalFS's stack buffer.
func osTree(t *testing.T) (root, long string) {
	t.Helper()
	root = t.TempDir()
	mk := func(p string) {
		if err := os.MkdirAll(filepath.Join(root, p), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	put := func(p string, mode os.FileMode) {
		if err := os.WriteFile(filepath.Join(root, p), []byte(strings.TrimPrefix(p, "/")), mode); err != nil {
			t.Fatal(err)
		}
	}
	mk("empty")
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("big/%04d%s", i, strings.Repeat("n", 196))
		if i%100 == 0 {
			mk(name)
		} else {
			put(name, 0o644)
		}
	}
	mk("mixed/sub")
	for _, name := range []string{"a b", "100%", "ünïcödé", "日本語", "plain"} {
		put("mixed/"+name, 0o640)
	}
	if err := os.Symlink("sub", filepath.Join(root, "mixed/link")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		long += "/" + strings.Repeat(string(rune('a'+i)), 120)
	}
	mk(long)
	put(long+"/f", 0o600)
	return root, long
}

// TestLocalFSMatchesOS: the raw system calls give what package os gives
// on the same tree — listings (order and types), stat fields, paths
// longer than the stack buffer, an export rooted at "/" — and the
// errnos of the wrong kind of object.
func TestLocalFSMatchesOS(t *testing.T) {
	root, long := osTree(t)
	l, err := NewLocalFS(root)
	if err != nil {
		t.Fatal(err)
	}
	slash, err := NewLocalFS("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/", "/empty", "/big", "/mixed", "/mixed/sub", "/mixed/link", long} {
		want, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []struct {
			fs   *LocalFS
			path string
		}{{l, dir}, {slash, filepath.Join(root, dir)}} {
			got, err := view.fs.ReadDir(view.path)
			if err != nil {
				t.Fatalf("ReadDir(%q): %v", view.path, err)
			}
			if len(got) != len(want) {
				t.Fatalf("ReadDir(%q) lists %d entries, os.ReadDir %d", view.path, len(got), len(want))
			}
			for i, e := range want {
				if got[i].Name != e.Name() || got[i].IsDir != e.IsDir() {
					t.Fatalf("ReadDir(%q)[%d] = %+v, os.ReadDir has {%s %v}", view.path, i, got[i], e.Name(), e.IsDir())
				}
			}
		}
	}

	for _, p := range []string{"/", "/empty", "/big/0001" + strings.Repeat("n", 196), "/mixed/a b", "/mixed/100%",
		"/mixed/日本語", "/mixed/sub", "/mixed/link", long, long + "/f"} {
		st, err := os.Stat(filepath.Join(root, p))
		if err != nil {
			t.Fatal(err)
		}
		want := FileInfo{
			Name:  filepath.Base(p),
			Size:  st.Size(),
			Mode:  uint32(st.Mode().Perm()),
			MTime: st.ModTime().Unix(),
			Inode: st.Sys().(*syscall.Stat_t).Ino,
			IsDir: st.IsDir(),
		}
		if got, err := l.Stat(p); err != nil || got != want {
			t.Errorf("Stat(%q) = %+v, %v; os.Stat gives %+v", p, got, err, want)
		}
		if got, err := slash.Stat(filepath.Join(root, p)); err != nil || got.Inode != want.Inode || got.Size != want.Size {
			t.Errorf("Stat(%q) under / = %+v, %v; os.Stat gives %+v", p, got, err, want)
		}
		if want.IsDir {
			continue
		}
		f, fi, err := l.OpenStat(p, O_RDONLY, 0)
		if err != nil {
			t.Fatalf("OpenStat(%q): %v", p, err)
		}
		data := make([]byte, 1024)
		n, err := f.Pread(data, 0)
		data = data[:n]
		f.Close()
		if fi != want || err != nil || string(data) != strings.TrimPrefix(p, "/") {
			t.Errorf("OpenStat(%q) = %+v reading %q, %v; os.Stat gives %+v", p, fi, data, err, want)
		}
	}
	if err := l.Mkdir(long+"/made", 0o700); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(root, long, "made")); err != nil || st.Mode().Perm() != 0o700 || !st.IsDir() {
		t.Errorf("Mkdir beyond the stack buffer made %v, %v", st, err)
	}

	for _, c := range []struct {
		name string
		err  error
		want Errno
	}{
		{"stat missing", func() error { _, err := l.Stat("/mixed/missing"); return err }(), ENOENT},
		{"open missing", func() error { _, err := l.Open("/missing", O_RDONLY, 0); return err }(), ENOENT},
		{"readdir missing", func() error { _, err := l.ReadDir("/missing"); return err }(), ENOENT},
		{"stat through a file", func() error { _, err := l.Stat("/mixed/plain/x"); return err }(), ENOTDIR},
		{"readdir of a file", func() error { _, err := l.ReadDir("/mixed/plain"); return err }(), ENOTDIR},
		{"rmdir of a file", l.Rmdir("/mixed/plain"), ENOTDIR},
		{"unlink of a directory", l.Unlink("/empty"), EISDIR},
		{"open of a directory", func() error { _, err := l.Open("/empty", O_RDONLY, 0); return err }(), EISDIR},
		{"create over a directory", func() error { _, err := l.Open("/empty", O_WRONLY|O_CREAT, 0o644); return err }(), EISDIR},
		{"rmdir of a full directory", l.Rmdir("/mixed"), ENOTEMPTY},
		{"mkdir over a file", l.Mkdir("/mixed/plain", 0o755), EEXIST},
		{"rename onto a directory", l.Rename("/mixed/plain", "/empty"), EEXIST},
		{"rename a directory onto one", l.Rename("/mixed/sub", "/empty"), EEXIST},
	} {
		if got := AsErrno(c.err); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.err, c.want)
		}
	}
	// os.Rename refuses to replace a directory too.
	if err := os.Rename(filepath.Join(root, "mixed/sub"), filepath.Join(root, "empty")); AsErrno(err) != EEXIST {
		t.Errorf("os.Rename of a directory onto one = %v; LocalFS answers EEXIST", err)
	}
}

// An unlink never removes a directory and an rmdir never a file: each is
// one unlinkat that the kernel refuses for the wrong kind, so there is
// no window between a check and the removal for a swap to fall into.
func TestLocalFSUnlinkRmdirKeepWrongKind(t *testing.T) {
	l := newLocal(t)
	if err := l.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(l, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlink("/d"); AsErrno(err) != EISDIR {
		t.Errorf("unlink of an empty directory = %v, want EISDIR", err)
	}
	if err := l.Rmdir("/f"); AsErrno(err) != ENOTDIR {
		t.Errorf("rmdir of a file = %v, want ENOTDIR", err)
	}
	if fi, err := l.Stat("/d"); err != nil || !fi.IsDir {
		t.Errorf("the directory after unlink: %+v, %v", fi, err)
	}
	if fi, err := l.Stat("/f"); err != nil || fi.IsDir {
		t.Errorf("the file after rmdir: %+v, %v", fi, err)
	}
	if err := l.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if err := l.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
}

// TestLocalFSAllocationGuards pins what a path verb costs the heap on
// the server's side of the wire: a stat, hit or miss, and a mkdir,
// rename and rmdir nothing; a listing its string and its entry slice.
func TestLocalFSAllocationGuards(t *testing.T) {
	l := newLocal(t)
	if err := l.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := WriteFile(l, fmt.Sprintf("/d/entry%02d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"stat", 0, func() error { _, err := l.Stat("/d/entry00"); return err }},
		{"stat miss", 0, func() error {
			if _, err := l.Stat("/d/missing"); AsErrno(err) != ENOENT {
				return fmt.Errorf("stat of a missing file = %v", err)
			}
			return nil
		}},
		{"mkdir + rename + rmdir", 0, func() error {
			return errors.Join(l.Mkdir("/d/sub", 0o755), l.Rename("/d/sub", "/d/moved"), l.Rmdir("/d/moved"))
		}},
		{"readdir of 16 entries", 3, func() error {
			ents, err := l.ReadDir("/d")
			if err == nil && len(ents) != 16 {
				err = fmt.Errorf("%d entries", len(ents))
			}
			return err
		}},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := g.op(); err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		}); n > g.max {
			t.Errorf("%s allocates %.1f/op, want <= %.0f", g.name, n, g.max)
		}
	}
}

// wrappedErrno has the shape of resilient's abandoned: an Errno that
// unwraps to itself.
type wrappedErrno struct{ Errno }

func (w wrappedErrno) Unwrap() error { return w.Errno }

// TestAsErrnoAllocationFree: the errors every layer maps — an Errno, a
// host errno, a %w-wrapped Errno, a *fs.PathError — map without
// allocating, and joined errors and wrapper types still map as before.
func TestAsErrnoAllocationFree(t *testing.T) {
	for _, c := range []struct {
		err  error
		want Errno
	}{
		{ENOENT, ENOENT},
		{syscall.ENOTEMPTY, ENOTEMPTY},
		{fmt.Errorf("stat /x: %w", EACCES), EACCES},
		{&fs.PathError{Op: "open", Path: "/x", Err: syscall.EISDIR}, EISDIR},
		{&os.SyscallError{Syscall: "fstat", Err: syscall.EBADF}, EBADF},
	} {
		if got := AsErrno(c.err); got != c.want {
			t.Errorf("AsErrno(%#v) = %v, want %v", c.err, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { AsErrno(c.err) }); n != 0 {
			t.Errorf("AsErrno(%#v) allocates %.1f/op, want 0", c.err, n)
		}
	}
	for _, c := range []struct {
		err  error
		want Errno
	}{
		{wrappedErrno{ETIMEDOUT}, ETIMEDOUT},
		{fmt.Errorf("copy: %w", wrappedErrno{EAGAIN}), EAGAIN},
		{errors.Join(errors.New("first"), EROFS), EROFS},
		{errors.Join(errors.New("first"), &fs.PathError{Op: "x", Path: "y", Err: syscall.ENOSPC}), ENOSPC},
		{fs.ErrNotExist, ENOENT},
		{fmt.Errorf("read: %w", fs.ErrClosed), EBADF},
		{syscall.Errno(0xfff), EIO},
		{errors.New("weird"), EIO},
	} {
		if got := AsErrno(c.err); got != c.want {
			t.Errorf("AsErrno(%#v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// direntRecord is one getdents64 record, padded to 8 bytes as the
// kernel lays it out.
func direntRecord(ino uint64, typ byte, name string) []byte {
	reclen := (direntName + len(name) + 1 + 7) &^ 7
	rec := make([]byte, reclen)
	binary.NativeEndian.PutUint64(rec[direntIno:], ino)
	binary.NativeEndian.PutUint16(rec[direntReclen:], uint16(reclen))
	rec[direntType] = typ
	copy(rec[direntName:], name)
	return rec
}

// TestAppendDirentsUnknownType: on a filesystem that records no entry
// types, every record says DT_UNKNOWN and the type comes from an lstat
// beneath the directory; an entry removed since the read is left out.
func TestAppendDirentsUnknownType(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "file"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("sub", filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	var dents []byte
	for i, name := range []string{".", "..", "file", "gone", "sub", "link"} {
		dents = append(dents, direntRecord(uint64(i+1), syscall.DT_UNKNOWN, name)...)
	}
	dents = append(dents, direntRecord(0, syscall.DT_REG, "deleted")...)
	block, n, err := appendDirents(nil, 0, fd, dents)
	if err != nil {
		t.Fatal(err)
	}
	got := DirEntries(block, n)
	want := []DirEntry{{"file", false}, {"sub", true}, {"link", false}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("appendDirents = %v, want %v", got, want)
	}
	if _, _, err := appendDirents(nil, 0, fd, direntRecord(1, syscall.DT_REG, "x")[:direntName+1]); AsErrno(err) != EIO {
		t.Errorf("a record longer than the buffer gives %v, want EIO", err)
	}
}

// A dirent block keeps any name byte for byte, NUL and high bytes too.
func TestDirentBlockRoundTrip(t *testing.T) {
	want := []DirEntry{{"a\x00b", false}, {"dir", true}, {strings.Repeat("é", 300), false}, {"\xff", true}}
	var block []byte
	for _, e := range want {
		block = AppendDirent(block, []byte(e.Name), e.IsDir)
	}
	if got := DirEntries(block, len(want)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("DirEntries = %+v, want %+v", got, want)
	}
	if got := DirEntries(nil, 0); got != nil {
		t.Errorf("DirEntries of an empty block = %v, want nil", got)
	}
}
