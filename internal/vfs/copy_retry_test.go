package vfs_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tss/internal/resilient"
	"tss/internal/vfs"
)

// flakyDst is a destination whose chunk writes fail as a test scripts
// them. It can reconnect (and counts it), like a Chirp connection, and
// offers no part verbs, so the multipart engine writes chunks with
// positional I/O on files it opens here.
type flakyDst struct {
	vfs.FileSystem
	// fail decides the nth (0-based) write at offset off.
	fail func(off int64, nth int) error

	mu         sync.Mutex
	writes     map[int64]int // chunk writes seen, by offset
	reconnects int
}

func (d *flakyDst) Reconnect() error {
	d.mu.Lock()
	d.reconnects++
	d.mu.Unlock()
	return nil
}

func (d *flakyDst) Open(path string, flags int, mode uint32) (vfs.File, error) {
	f, err := d.FileSystem.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: f, fs: d}, nil
}

type flakyFile struct {
	vfs.File
	fs *flakyDst
}

func (f *flakyFile) Pwrite(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	nth := f.fs.writes[off]
	f.fs.writes[off]++
	f.fs.mu.Unlock()
	if err := f.fs.fail(off, nth); err != nil {
		return 0, err
	}
	return f.File.Pwrite(p, off)
}

const retryChunk = 16 << 10

// retryFixture is a three-chunk source, a flaky destination and a
// four-attempt policy that never sleeps, with a ten-token budget whose
// earnings per success are too small to blur a count of whole tokens.
func retryFixture(t *testing.T, fail func(off int64, nth int) error) (dst, src vfs.Loc, d *flakyDst, opts vfs.CopyOptions, budget *resilient.RetryBudget, data []byte) {
	t.Helper()
	srcDir := t.TempDir()
	data = bytes.Repeat([]byte("tactical storage "), 3*retryChunk/17)
	if err := os.WriteFile(filepath.Join(srcDir, "src.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sfs, err := vfs.NewLocalFS(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d = &flakyDst{FileSystem: dfs, fail: fail, writes: map[int64]int{}}
	budget = resilient.NewRetryBudget(10, 0.001)
	opts = vfs.CopyOptions{
		Concurrency: 2, ChunkSize: retryChunk, Verify: true,
		Retry: resilient.Policy{Attempts: 3, Base: time.Millisecond, Sleep: func(time.Duration) {}, RetryBudget: budget},
	}
	return vfs.Loc{FS: d, Path: "/out.bin"}, vfs.Loc{FS: sfs, Path: "/src.bin"}, d, opts, budget, data
}

// A chunk the server sheds is re-sent in place: the transfer completes,
// each shed reply costs one budget token, and nobody redials a server
// that said "not now".
func TestCopyRetriesPushbackInPlace(t *testing.T) {
	dst, src, d, opts, budget, data := retryFixture(t, func(off int64, nth int) error {
		if off == retryChunk && nth < 2 {
			return vfs.EAGAIN
		}
		return nil
	})
	if _, err := vfs.Copy(context.Background(), dst, src, opts); err != nil {
		t.Fatalf("copy through two shed chunk writes = %v", err)
	}
	got, err := vfs.ReadFile(dst.FS, dst.Path)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("destination differs from the source (%v)", err)
	}
	if spent := 10 - budget.Tokens(); spent < 1.9 || spent > 2 {
		t.Errorf("budget spent %.3f tokens, want 2: one per shed reply", spent)
	}
	if d.reconnects != 0 {
		t.Errorf("pushback provoked %d reconnects, want 0", d.reconnects)
	}
}

// A destination that fails ENOTCONN forever sees each chunk write at
// most 1 + Attempts times in one Copy: connection errors are retried at
// one level, the chunk, and an exhausted chunk ends the transfer.
func TestCopyAttemptsAreNotNested(t *testing.T) {
	dst, src, d, opts, _, _ := retryFixture(t, func(int64, int) error { return vfs.ENOTCONN })
	if _, err := vfs.Copy(context.Background(), dst, src, opts); err == nil {
		t.Fatal("copy to a dead destination succeeded")
	}
	if len(d.writes) == 0 {
		t.Fatal("no chunk write was attempted")
	}
	for off, n := range d.writes {
		if n > 1+3 {
			t.Errorf("chunk at %d written %d times, want at most 1 + Attempts = 4", off, n)
		}
	}
	if _, err := dst.FS.Stat(dst.Path); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("partial destination left behind (stat = %v)", err)
	}
}

// An abandoned transfer reports what §6 and every other layer report:
// ETIMEDOUT for a connection that never came back, EAGAIN for a server
// still shedding.
func TestCopyGivesUpWithETIMEDOUT(t *testing.T) {
	for standing, want := range map[vfs.Errno]vfs.Errno{vfs.ENOTCONN: vfs.ETIMEDOUT, vfs.EAGAIN: vfs.EAGAIN} {
		dst, src, _, opts, _, _ := retryFixture(t, func(int64, int) error { return standing })
		if _, err := vfs.Copy(context.Background(), dst, src, opts); vfs.AsErrno(err) != want {
			t.Errorf("copy against standing %v = %v, want %v", standing, err, want)
		}
	}
}

// A chunk that fails verification once is sent once more under a retry
// policy; without one the failure surfaces, as it always has.
func TestCopyRerunsChunkThatFailedVerification(t *testing.T) {
	torn := func(off int64, nth int) error {
		if off == 0 && nth == 0 {
			return vfs.ChecksumMismatch("/out.bin", vfs.AlgoCRC32C, "want", "got")
		}
		return nil
	}
	dst, src, d, opts, _, _ := retryFixture(t, torn)
	if _, err := vfs.Copy(context.Background(), dst, src, opts); err != nil {
		t.Fatalf("copy through one torn chunk = %v", err)
	}
	if d.writes[0] != 2 {
		t.Errorf("torn chunk written %d times, want 2", d.writes[0])
	}
	dst, src, _, opts, _, _ = retryFixture(t, torn)
	opts.Retry = nil
	if _, err := vfs.Copy(context.Background(), dst, src, opts); vfs.AsErrno(err) != vfs.EIO {
		t.Errorf("bare copy through a torn chunk = %v, want the integrity error", err)
	}
}
