package abstraction

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"tss/internal/faultfs"
	"tss/internal/vfs"
)

// corruptMirror builds a three-replica verifying mirror with replica 0
// wrapped in a fault layer, seeded with files numbered 0..files-1.
func corruptMirror(t *testing.T, files, size int) (*MirrorFS, *faultfs.FS, [][]byte) {
	t.Helper()
	var bad *faultfs.FS
	replicas := make([]vfs.FileSystem, 3)
	for i := range replicas {
		l, err := vfs.NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			bad = faultfs.New(l)
			replicas[i] = bad
		} else {
			replicas[i] = l
		}
	}
	m, err := NewMirrorOptions(MirrorOptions{VerifyReads: true}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, files)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("block-%03d ", i)), size/10+1)[:size]
		if err := vfs.WriteFile(m, fmt.Sprintf("/f%03d", i), payloads[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return m, bad, payloads
}

// TestMirrorVerifyOnRead is the acceptance scenario: random bit flips
// on one of three replicas, and verify-on-read must deliver zero wrong
// payloads by failing over to a sibling whose digest checks out.
func TestMirrorVerifyOnRead(t *testing.T) {
	const files, size = 16, 8192
	m, bad, payloads := corruptMirror(t, files, size)
	bad.CorruptRandomly(1e-3, 11)

	for i, want := range payloads {
		var buf bytes.Buffer
		if _, err := m.GetFile(fmt.Sprintf("/f%03d", i), &buf); err != nil {
			t.Fatalf("verified read %d: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("read %d returned corrupted payload", i)
		}
	}
	if m.Stats.IntegrityFailovers.Load() == 0 {
		t.Error("no integrity failovers counted — corruption never hit the read path?")
	}
}

// TestMirrorScrubRepairs: a repairing scrub finds every divergent
// file, rewrites only the corrupt replica, and a second scrub is
// clean.
func TestMirrorScrubRepairs(t *testing.T) {
	const files, size = 12, 8192
	m, bad, payloads := corruptMirror(t, files, size)
	bad.CorruptRandomly(1e-3, 5)

	rep, err := m.Scrub(context.Background(), ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesScanned != files {
		t.Errorf("scanned %d files, want %d", rep.FilesScanned, files)
	}
	if rep.Divergent == 0 {
		t.Fatal("scrub found no divergence over a corrupted replica")
	}
	for _, f := range rep.Files {
		if f.Err != "" {
			t.Errorf("%s: %s", f.Path, f.Err)
		}
		for _, r := range f.Repaired {
			if r != 0 {
				t.Errorf("%s: repaired replica %d, but only replica 0 was corrupt", f.Path, r)
			}
		}
		if len(f.Repaired) != 1 {
			t.Errorf("%s: repaired %v, want exactly [0]", f.Path, f.Repaired)
		}
	}

	again, err := m.Scrub(context.Background(), ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Divergent != 0 {
		t.Fatalf("second scrub still sees %d divergent files", again.Divergent)
	}
	// And the repaired replica serves the original bytes.
	for i, want := range payloads {
		var buf bytes.Buffer
		if _, err := m.GetFile(fmt.Sprintf("/f%03d", i), &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("post-repair read %d mismatch", i)
		}
	}
}

// TestScrubRepairAllocationBound repairs one 16 MiB file whose copy
// on one of three replicas has one flipped byte. The repair streams
// from the winner through the copy engine's window and checks the
// digest where the copy lands, so what it allocates does not grow with
// the file.
func TestScrubRepairAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the bound leans on a warm sync.Pool, which the race detector empties at random")
	}
	replicas := make([]vfs.FileSystem, 3)
	for i := range replicas {
		l, err := vfs.NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = l
	}
	m, err := NewMirror(replicas...)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 1<<20) // 16 MiB
	if err := vfs.WriteFile(m, "/big", data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := replicas[1].Open("/big", vfs.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pwrite([]byte("X"), 5<<20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := m.Scrub(context.Background(), ScrubOptions{Repair: true})
	runtime.ReadMemStats(&after)
	if err != nil || rep.Repaired != 1 {
		t.Fatalf("scrub = %+v, %v; want one copy repaired", rep, err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("a repairing scrub of a 16 MiB file allocated %d KiB", alloc>>10)
	if alloc >= 1<<20 {
		t.Errorf("a repairing scrub of a 16 MiB file allocated %d KiB, want < 1024", alloc>>10)
	}
	if got, err := vfs.ReadFile(replicas[1], "/big"); err != nil || !bytes.Equal(got, data) {
		t.Errorf("repaired replica differs from the winner (%v)", err)
	}
}

// TestMirrorCombinedFaults overlaps two failures: bit rot on replica 0
// while replica 1 is down entirely. Reads must still return correct
// bytes from replica 2; a scrub during the outage must refuse to
// arbitrate the resulting one-against-one tie; and once replica 1
// returns, scrub repairs exactly the corrupt replica.
func TestMirrorCombinedFaults(t *testing.T) {
	const files, size = 8, 8192
	var bad, draining *faultfs.FS
	replicas := make([]vfs.FileSystem, 3)
	for i := range replicas {
		l, err := vfs.NewLocalFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			bad = faultfs.New(l)
			replicas[i] = bad
		case 1:
			draining = faultfs.New(l)
			replicas[i] = draining
		default:
			replicas[i] = l
		}
	}
	m, err := NewMirrorOptions(MirrorOptions{VerifyReads: true}, replicas...)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, files)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("pair-%03d ", i)), size/9+1)[:size]
		if err := vfs.WriteFile(m, fmt.Sprintf("/f%03d", i), payloads[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	bad.CorruptRandomly(1e-3, 17)

	// Corruption alone first: reads succeed via majority verification,
	// and replica 0 accumulates the strike history that phase two leans
	// on — exactly what a real workload would have built up.
	for i, want := range payloads {
		var buf bytes.Buffer
		if _, err := m.GetFile(fmt.Sprintf("/f%03d", i), &buf); err != nil {
			t.Fatalf("read %d under corruption: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("read %d returned corrupted payload", i)
		}
	}

	// Now replica 1 drains away mid-corruption. Reads must still return
	// correct bytes: replica 0's strike record settles the one-against-
	// one disagreement in the clean replica's favor.
	draining.SetDown(true)
	for i, want := range payloads {
		var buf bytes.Buffer
		if _, err := m.GetFile(fmt.Sprintf("/f%03d", i), &buf); err != nil {
			t.Fatalf("read %d under combined faults: %v", i, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("read %d returned corrupted payload under combined faults", i)
		}
	}

	// With replica 1 absent the corrupt and clean copies tie one vote
	// each at equal mtime: scrub must fail stop, not guess.
	rep, err := m.Scrub(context.Background(), ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 0 {
		t.Errorf("scrub repaired %d copies during an unarbitrable tie", rep.Repaired)
	}
	// The untouched replica 2 must still hold pristine bytes.
	if got, err := vfs.ReadFile(replicas[2], "/f000"); err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("healthy replica modified during tie (err=%v)", err)
	}

	// Replica 1 comes back: the vote is 2-1 and repair lands only on
	// the corrupt replica.
	draining.SetDown(false)
	rep, err = m.Scrub(context.Background(), ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent != files {
		t.Errorf("scrub after recovery: %d divergent, want %d", rep.Divergent, files)
	}
	for _, f := range rep.Files {
		if f.Err != "" {
			t.Errorf("%s: %s", f.Path, f.Err)
		}
		if len(f.Repaired) != 1 || f.Repaired[0] != 0 {
			t.Errorf("%s: repaired %v, want exactly [0]", f.Path, f.Repaired)
		}
	}
	again, err := m.Scrub(context.Background(), ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Divergent != 0 {
		t.Fatalf("final scrub still sees %d divergent files", again.Divergent)
	}
}

// TestMirrorTwoReplicaDisagreement: with only two replicas and no
// arbiter, a digest disagreement is unarbitrable and the read fails
// with an integrity error rather than guessing.
func TestMirrorTwoReplicaDisagreement(t *testing.T) {
	l0, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l1, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := faultfs.New(l0)
	m, err := NewMirrorOptions(MirrorOptions{VerifyReads: true}, bad, l1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("two-way "), 2048)
	if err := vfs.WriteFile(m, "/x", data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad.CorruptRandomly(1e-2, 23)
	var buf bytes.Buffer
	_, rerr := m.GetFile("/x", &buf)
	if rerr == nil {
		t.Fatal("two-replica disagreement delivered data")
	}
	if !errors.Is(rerr, vfs.ErrIntegrity) {
		t.Errorf("disagreement error = %v, want ErrIntegrity", rerr)
	}
	if vfs.AsErrno(rerr) != vfs.EIO {
		t.Errorf("disagreement errno = %v, want EIO", vfs.AsErrno(rerr))
	}
}

// TestMirrorChecksumInterface: the mirror answers Checksum from the
// first replica that can, via the capability probe.
func TestMirrorChecksumInterface(t *testing.T) {
	m, _, payloads := corruptMirror(t, 1, 4096)
	cs := vfs.Capabilities(m).Checksummer
	if cs == nil {
		t.Fatal("mirror offers no Checksummer")
	}
	sum, err := cs.Checksum("/f000", vfs.AlgoSHA256)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vfs.HashFile(m, "/f000", vfs.AlgoSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if sum != want || len(payloads) != 1 {
		t.Errorf("mirror checksum = %s, want %s", sum, want)
	}
}
