package abstraction

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tss/internal/vfs"
)

// ---- MirrorFS ----

func newMirror(t *testing.T, n int) (*MirrorFS, []*vfs.LocalFS) {
	t.Helper()
	var replicas []*vfs.LocalFS
	var fss []vfs.FileSystem
	for i := 0; i < n; i++ {
		l := localFS(t)
		replicas = append(replicas, l)
		fss = append(fss, l)
	}
	m, err := NewMirror(fss...)
	if err != nil {
		t.Fatal(err)
	}
	return m, replicas
}

func TestMirrorWritesEverywhere(t *testing.T) {
	m, replicas := newMirror(t, 3)
	if err := vfs.WriteFile(m, "/f", []byte("copied thrice"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas {
		data, err := vfs.ReadFile(r, "/f")
		if err != nil || string(data) != "copied thrice" {
			t.Errorf("replica %d: %q, %v", i, data, err)
		}
	}
	if err := m.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas {
		if fi, err := r.Stat("/d"); err != nil || !fi.IsDir {
			t.Errorf("replica %d missing dir: %v", i, err)
		}
	}
	if err := m.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas {
		if vfs.Exists(r, "/f") {
			t.Errorf("replica %d still has the file", i)
		}
	}
}

// flakyFS wraps a filesystem and can be switched "down", failing every
// operation with ENOTCONN — the test double for a withdrawn server.
type flakyFS struct {
	vfs.FileSystem
	down bool
}

func (f *flakyFS) gate() error {
	if f.down {
		return vfs.ENOTCONN
	}
	return nil
}

func (f *flakyFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.FileSystem.Open(path, flags, mode)
}

func (f *flakyFS) Stat(path string) (vfs.FileInfo, error) {
	if err := f.gate(); err != nil {
		return vfs.FileInfo{}, err
	}
	return f.FileSystem.Stat(path)
}

func (f *flakyFS) Unlink(path string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.FileSystem.Unlink(path)
}

func (f *flakyFS) Mkdir(path string, mode uint32) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.FileSystem.Mkdir(path, mode)
}

func (f *flakyFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.FileSystem.ReadDir(path)
}

func TestMirrorSurvivesDownReplica(t *testing.T) {
	a, b := localFS(t), localFS(t)
	flaky := &flakyFS{FileSystem: a}
	m, err := NewMirror(flaky, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "/before", []byte("both"), 0o644); err != nil {
		t.Fatal(err)
	}
	flaky.down = true
	// Writes continue on the survivor.
	if err := vfs.WriteFile(m, "/during", []byte("one"), 0o644); err != nil {
		t.Fatalf("write with one replica down: %v", err)
	}
	// Reads fall through to the survivor.
	data, err := vfs.ReadFile(m, "/before")
	if err != nil || string(data) != "both" {
		t.Fatalf("read with first replica down: %q, %v", data, err)
	}
	if _, err := m.Stat("/during"); err != nil {
		t.Errorf("stat with first replica down: %v", err)
	}
	// The stale replica is missing the new file; a repairing scrub
	// fills it in.
	flaky.down = false
	if vfs.Exists(a, "/during") {
		t.Fatal("down replica mysteriously has the file")
	}
	if _, err := m.Scrub(context.Background(), ScrubOptions{Repair: true}); err != nil {
		t.Fatal(err)
	}
	data, err = vfs.ReadFile(a, "/during")
	if err != nil || string(data) != "one" {
		t.Errorf("after sync: %q, %v", data, err)
	}
}

func TestMirrorSemanticErrorsPropagate(t *testing.T) {
	m, _ := newMirror(t, 2)
	if err := vfs.WriteFile(m, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// EEXIST is a semantic error, not a transport one: it must surface.
	if _, err := m.Open("/f", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644); vfs.AsErrno(err) != vfs.EEXIST {
		t.Errorf("exclusive create on mirror = %v, want EEXIST", err)
	}
	if _, err := vfs.ReadFile(m, "/missing"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("read missing = %v, want ENOENT", err)
	}
}

func TestMirrorAllDownFails(t *testing.T) {
	a := &flakyFS{FileSystem: localFS(t), down: true}
	b := &flakyFS{FileSystem: localFS(t), down: true}
	m, err := NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "/f", []byte("x"), 0o644); err == nil {
		t.Error("write with all replicas down succeeded")
	}
}

// ---- StripedFS ----

func newStriped(t *testing.T, width int, stripeSize int64) (*StripedFS, []DataServer) {
	t.Helper()
	var servers []DataServer
	for i := 0; i < width; i++ {
		servers = append(servers, DataServer{
			Name: fmt.Sprintf("s%d", i),
			FS:   localFS(t),
			Dir:  "/stripes",
		})
	}
	s, err := NewStriped(localFS(t), servers, StripeOptions{StripeSize: stripeSize, ClientID: "t"})
	if err != nil {
		t.Fatal(err)
	}
	return s, servers
}

func TestStripedRoundTrip(t *testing.T) {
	s, servers := newStriped(t, 3, 1024)
	payload := make([]byte, 10*1024+137) // uneven tail
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := vfs.WriteFile(s, "/big", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(s, "/big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %d vs %d bytes, %v", len(got), len(payload), err)
	}
	fi, err := s.Stat("/big")
	if err != nil || fi.Size != int64(len(payload)) {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	// The data is genuinely spread: each server holds a share, and no
	// single server holds everything.
	var perServer []int64
	var total int64
	for _, srv := range servers {
		ents, err := srv.FS.ReadDir("/stripes")
		if err != nil || len(ents) != 1 {
			t.Fatalf("server listing: %v, %v", ents, err)
		}
		fi, _ := srv.FS.Stat("/stripes/" + ents[0].Name)
		perServer = append(perServer, fi.Size)
		total += fi.Size
	}
	if total != int64(len(payload)) {
		t.Errorf("member sizes sum to %d, want %d (%v)", total, len(payload), perServer)
	}
	for i, sz := range perServer {
		if sz == int64(len(payload)) || sz == 0 {
			t.Errorf("server %d holds %d bytes: not striped", i, sz)
		}
	}
}

// Property: random offset writes then reads through the stripes match
// a reference byte slice.
func TestStripedRandomAccessProperty(t *testing.T) {
	s, _ := newStriped(t, 4, 256)
	f, err := s.Open("/rand", vfs.O_RDWR|vfs.O_CREAT, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const fileSize = 8192
	ref := make([]byte, fileSize)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		off := rng.Intn(fileSize - 1)
		length := rng.Intn(fileSize-off) + 1
		chunk := make([]byte, length)
		rng.Read(chunk)
		if _, err := f.Pwrite(chunk, int64(off)); err != nil {
			t.Fatalf("pwrite(%d,%d): %v", off, length, err)
		}
		copy(ref[off:], chunk)

		roff := rng.Intn(fileSize)
		rlen := rng.Intn(fileSize-roff) + 1
		buf := make([]byte, rlen)
		n, err := f.Pread(buf, int64(roff))
		if err != nil {
			t.Fatalf("pread(%d,%d): %v", roff, rlen, err)
		}
		// Reads beyond the written extent may be short; compare what
		// was returned against the reference.
		if !bytes.Equal(buf[:n], ref[roff:roff+n]) {
			t.Fatalf("iteration %d: read mismatch at %d+%d", i, roff, rlen)
		}
	}
}

func TestStripedExtentMath(t *testing.T) {
	// logicalExtent and localLength must be inverses over random
	// logical sizes.
	f := func(size uint32, w8, ss8 uint8) bool {
		w := int64(w8%7) + 1
		ss := int64(ss8%200) + 1
		logical := int64(size % (1 << 20))
		var reconstructed int64
		for k := int64(0); k < w; k++ {
			local := localLength(logical, k, w, ss)
			if end := logicalExtent(local, k, w, ss); end > reconstructed {
				reconstructed = end
			}
		}
		return reconstructed == logical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestStripedTruncate(t *testing.T) {
	s, _ := newStriped(t, 3, 512)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := vfs.WriteFile(s, "/f", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate("/f", 1234); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(s, "/f")
	if err != nil || !bytes.Equal(got, payload[:1234]) {
		t.Fatalf("after truncate: %d bytes, %v", len(got), err)
	}
	fi, _ := s.Stat("/f")
	if fi.Size != 1234 {
		t.Errorf("stat after truncate = %d", fi.Size)
	}
}

func TestStripedCreateSemantics(t *testing.T) {
	s, _ := newStriped(t, 2, 128)
	f, err := s.Open("/x", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.Open("/x", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644); vfs.AsErrno(err) != vfs.EEXIST {
		t.Errorf("second exclusive create = %v", err)
	}
	// Reopen with O_TRUNC empties the file.
	if err := vfs.WriteFile(s, "/x", []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = s.Open("/x", vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	fi, _ := s.Stat("/x")
	if fi.Size != 0 {
		t.Errorf("size after O_TRUNC reopen = %d", fi.Size)
	}
}

func TestStripedUnlinkRemovesMembers(t *testing.T) {
	s, servers := newStriped(t, 3, 256)
	if err := vfs.WriteFile(s, "/f", make([]byte, 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		ents, _ := srv.FS.ReadDir("/stripes")
		if len(ents) != 0 {
			t.Errorf("server %d still holds %d member files", i, len(ents))
		}
	}
	if _, err := s.Stat("/f"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("stat after unlink = %v", err)
	}
}

func TestStripedDirectoriesAreMetadataOnly(t *testing.T) {
	s, _ := newStriped(t, 2, 128)
	if err := s.Mkdir("/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(s, "/sub/f", []byte("inside"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := s.ReadDir("/sub")
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir = %+v, %v", ents, err)
	}
	if err := s.Rename("/sub", "/moved"); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(s, "/moved/f")
	if err != nil || string(data) != "inside" {
		t.Fatalf("after dir rename: %q, %v", data, err)
	}
	fi, err := s.Stat("/moved")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat dir = %+v, %v", fi, err)
	}
}

// Striping composes with the recursive interface: a striped file
// system over mirrors (RAID-10-ish), just by plugging filesystems
// together.
func TestStripedOverMirrors(t *testing.T) {
	var servers []DataServer
	for i := 0; i < 2; i++ {
		m, err := NewMirror(localFS(t), localFS(t))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, DataServer{Name: fmt.Sprintf("m%d", i), FS: m, Dir: "/d"})
	}
	s, err := NewStriped(localFS(t), servers, StripeOptions{StripeSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := vfs.WriteFile(s, "/raid10", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(s, "/raid10")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("striped-over-mirrored round trip failed: %v", err)
	}
}
