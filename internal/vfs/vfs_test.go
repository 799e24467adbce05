package vfs

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"testing"
	"testing/quick"
)

func newLocal(t *testing.T) *LocalFS {
	t.Helper()
	l, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLocalFSBasicCycle(t *testing.T) {
	l := newLocal(t)
	if err := WriteFile(l, "/hello.txt", []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := ReadFile(l, "/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Errorf("read back %q", data)
	}
	fi, err := l.Stat("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 11 || fi.IsDir || fi.Name != "hello.txt" {
		t.Errorf("stat = %+v", fi)
	}
	if fi.Inode == 0 {
		t.Error("inode not populated")
	}
}

func TestLocalFSMkdirReadDirRmdir(t *testing.T) {
	l := newLocal(t)
	if err := l.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(l, "/d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := l.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "f" || ents[0].IsDir {
		t.Errorf("entries = %+v", ents)
	}
	if err := l.Rmdir("/d"); AsErrno(err) != ENOTEMPTY {
		t.Errorf("rmdir non-empty = %v, want ENOTEMPTY", err)
	}
	if err := l.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := l.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
}

func TestLocalFSErrors(t *testing.T) {
	l := newLocal(t)
	if _, err := l.Stat("/missing"); AsErrno(err) != ENOENT {
		t.Errorf("stat missing = %v", err)
	}
	if _, err := l.Open("/missing", O_RDONLY, 0); AsErrno(err) != ENOENT {
		t.Errorf("open missing = %v", err)
	}
	if err := l.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Mkdir("/d", 0o755); AsErrno(err) != EEXIST {
		t.Errorf("mkdir existing = %v", err)
	}
	if err := l.Unlink("/d"); AsErrno(err) != EISDIR {
		t.Errorf("unlink dir = %v", err)
	}
	if _, err := l.Open("/d", O_RDONLY, 0); AsErrno(err) != EISDIR {
		t.Errorf("open dir = %v", err)
	}
	if err := WriteFile(l, "/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Rmdir("/f"); AsErrno(err) != ENOTDIR {
		t.Errorf("rmdir file = %v", err)
	}
	if _, err := l.Open("/f", O_WRONLY|O_CREAT|O_EXCL, 0o644); AsErrno(err) != EEXIST {
		t.Errorf("O_EXCL existing = %v", err)
	}
}

func TestLocalFSConfinement(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a file outside the root; ".." must not reach it.
	outside := dir + "-outside"
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)
	if _, err := l.Stat("/../" + "x"); AsErrno(err) != ENOENT {
		// ".." clamps to root; the only acceptable outcomes are ENOENT
		// (no such file inside the root) — never the outside file.
		t.Errorf("escape stat = %v", err)
	}
}

func TestPreadPwriteOffsets(t *testing.T) {
	l := newLocal(t)
	f, err := l.Open("/f", O_RDWR|O_CREAT, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Pwrite([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite([]byte("XY"), 2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	n, err := f.Pread(buf, 0)
	if err != nil || n != 6 {
		t.Fatalf("pread = %d, %v", n, err)
	}
	if string(buf) != "abXYef" {
		t.Errorf("content = %q", buf)
	}
	// EOF: read past end returns n=0, nil error.
	n, err = f.Pread(buf, 100)
	if err != nil || n != 0 {
		t.Errorf("pread at EOF = %d, %v", n, err)
	}
	if err := f.Ftruncate(3); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Fstat()
	if err != nil || fi.Size != 3 {
		t.Errorf("after truncate: %+v, %v", fi, err)
	}
}

func TestRenameAndTruncate(t *testing.T) {
	l := newLocal(t)
	if err := WriteFile(l, "/a", []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if Exists(l, "/a") || !Exists(l, "/b") {
		t.Error("rename did not move the file")
	}
	if err := l.Truncate("/b", 4); err != nil {
		t.Fatal(err)
	}
	data, _ := ReadFile(l, "/b")
	if string(data) != "0123" {
		t.Errorf("after truncate: %q", data)
	}
}

// TestCopyFile copies a file to another path of the same filesystem
// through the single-stream positional loop: the payload spans several
// windows, so the loop's offsets must advance window by window.
func TestCopyFile(t *testing.T) {
	l := newLocal(t)
	payload := bytes.Repeat([]byte("zyxw"), (3*Window+5)/4)
	if err := WriteFile(l, "/src", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Copy(context.Background(), Loc{FS: l, Path: "/dst"}, Loc{FS: l, Path: "/src"},
		CopyOptions{ChunkSize: 1 << 20, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Errorf("copied %d, want %d", n, len(payload))
	}
	got, _ := ReadFile(l, "/dst")
	if !bytes.Equal(got, payload) {
		t.Error("copy corrupted data")
	}
}

func TestWriteAllReadFull(t *testing.T) {
	l := newLocal(t)
	f, err := l.Open("/f", O_RDWR|O_CREAT, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteAll(f, []byte("hello"), 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := ReadFull(f, buf, 10); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("got %q", buf)
	}
	if err := ReadFull(f, buf, 13); err == nil {
		t.Error("ReadFull past EOF succeeded")
	}
}

func TestErrnoErrorsIs(t *testing.T) {
	if !errors.Is(ENOENT, fs.ErrNotExist) {
		t.Error("ENOENT is not fs.ErrNotExist")
	}
	if !errors.Is(EACCES, fs.ErrPermission) {
		t.Error("EACCES is not fs.ErrPermission")
	}
	if !errors.Is(EEXIST, fs.ErrExist) {
		t.Error("EEXIST is not fs.ErrExist")
	}
	if errors.Is(ENOENT, fs.ErrPermission) {
		t.Error("ENOENT matched fs.ErrPermission")
	}
	if ENOENT.Error() == "" || Errno(9999).Error() == "" {
		t.Error("empty error text")
	}
}

func TestAsErrnoMappings(t *testing.T) {
	if AsErrno(nil) != EOK {
		t.Error("AsErrno(nil)")
	}
	if AsErrno(os.ErrNotExist) != ENOENT {
		t.Error("os.ErrNotExist mapping")
	}
	if AsErrno(os.ErrPermission) != EACCES {
		t.Error("os.ErrPermission mapping")
	}
	if AsErrno(errors.New("weird")) != EIO {
		t.Error("unknown error should map to EIO")
	}
	if AsErrno(ESTALE) != ESTALE {
		t.Error("identity mapping")
	}
}

// Property: Code/FromCode are inverses over all errnos.
func TestCodeRoundTrip(t *testing.T) {
	f := func(v uint8) bool {
		e := Errno(v%120 + 1)
		return FromCode(Code(e)) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatFS(t *testing.T) {
	l := newLocal(t)
	info, err := l.StatFS()
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalBytes <= 0 || info.FreeBytes < 0 || info.FreeBytes > info.TotalBytes {
		t.Errorf("statfs = %+v", info)
	}
}

func TestOpenAppendAndSync(t *testing.T) {
	l := newLocal(t)
	if err := WriteFile(l, "/log", []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := l.Open("/log", O_WRONLY|O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With O_APPEND the kernel appends regardless of offset.
	if _, err := f.Pwrite([]byte("two"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, _ := ReadFile(l, "/log")
	if string(data) != "onetwo" {
		t.Errorf("append result = %q", data)
	}
}

// statHookFS hands out files whose Fstat result passes through hook
// first: the hook may change the file behind ReadFile's back, or the
// size a remote peer claims for it.
type statHookFS struct {
	FileSystem
	hook func(path string, fi *FileInfo) error
}

type statHookFile struct {
	File
	hook func(fi *FileInfo) error
}

func (h statHookFS) Open(path string, flags int, mode uint32) (File, error) {
	f, err := h.FileSystem.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return &statHookFile{File: f, hook: func(fi *FileInfo) error { return h.hook(path, fi) }}, nil
}

func (f *statHookFile) Fstat() (FileInfo, error) {
	fi, err := f.File.Fstat()
	if err == nil {
		err = f.hook(&fi)
	}
	return fi, err
}

func TestReadFileSizesItsBuffer(t *testing.T) {
	l := newLocal(t)
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	for _, n := range []int{0, 1, 64 << 10, 64<<10 + 1, 300_000} {
		want := pattern(n)
		if err := WriteFile(l, "/f", want, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(l, "/f")
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d bytes: read %d bytes, content differs", n, len(got))
		}
		// One buffer, sized from the stat: no 64 KiB scratch, no copy.
		if cap(got) != n+1 {
			t.Errorf("%d bytes: buffer of %d, want %d", n, cap(got), n+1)
		}
	}
	if _, err := ReadFile(l, "/missing"); !errors.Is(err, ENOENT) {
		t.Errorf("missing file: %v, want ENOENT", err)
	}

	// A file that grows between the stat and the read is read to its end.
	for _, n := range []int{0, 5, 64 << 10} {
		head, tail := pattern(n), []byte("and then some more, well past the planned size")
		if err := WriteFile(l, "/g", head, 0o644); err != nil {
			t.Fatal(err)
		}
		grow := func(path string, _ *FileInfo) error {
			w, err := l.Open(path, O_WRONLY|O_APPEND, 0)
			if err != nil {
				return err
			}
			defer w.Close()
			return WriteAll(w, tail, 0)
		}
		got, err := ReadFile(statHookFS{l, grow}, "/g")
		if err != nil {
			t.Fatal(err)
		}
		if want := append(head, tail...); !bytes.Equal(got, want) {
			t.Errorf("grown file: read %d bytes, want %d", len(got), len(want))
		}
	}

	// The size is a hint, and over Chirp it is the peer's word: a
	// negative or absurd one must cost neither a panic nor the memory.
	want := pattern(5000)
	if err := WriteFile(l, "/h", want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{-1, -2, math.MinInt64, 1 << 50, math.MaxInt64} {
		lie := func(_ string, fi *FileInfo) error { fi.Size = size; return nil }
		got, err := ReadFile(statHookFS{l, lie}, "/h")
		if err != nil {
			t.Fatalf("claimed size %d: %v", size, err)
		}
		if !bytes.Equal(got, want) || cap(got) > readFileHint+1 {
			t.Errorf("claimed size %d: read %d bytes into a buffer of %d", size, len(got), cap(got))
		}
	}
}
