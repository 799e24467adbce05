package abstraction

import (
	"fmt"
	"testing"

	"tss/internal/pathutil"
	"tss/internal/vfs"
)

func TestFsckCleanSystem(t *testing.T) {
	d, _ := newDPFS(t, 3)
	d.Mkdir("/sub", 0o755)
	for i := 0; i < 5; i++ {
		if err := vfs.WriteFile(d, fmt.Sprintf("/sub/f%d", i), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	report, err := d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("clean system reported dirty: %s", report)
	}
	if report.FilesChecked != 5 || report.DirsChecked != 2 {
		t.Errorf("counts = %+v", report)
	}
}

func TestFsckFindsAndRepairsDanglingStub(t *testing.T) {
	d, servers := newDPFS(t, 2)
	if err := vfs.WriteFile(d, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	stub, _ := d.ReadStub("/f")
	for i := range servers {
		if servers[i].Name == stub.Server {
			servers[i].FS.Unlink(stub.Path)
		}
	}
	report, err := d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.DanglingStubs) != 1 || report.DanglingStubs[0] != "/f" {
		t.Fatalf("dangling = %v", report.DanglingStubs)
	}
	// Repair pass.
	if _, err := d.Fsck(FsckOptions{RemoveDangling: true}); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(d.Meta(), "/f") {
		t.Error("dangling stub not removed")
	}
	report, _ = d.Fsck(FsckOptions{})
	if !report.Clean() {
		t.Errorf("after repair: %s", report)
	}
}

func TestFsckFindsAndReclaimsOrphan(t *testing.T) {
	d, servers := newDPFS(t, 2)
	if err := vfs.WriteFile(d, "/keep", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Plant an orphan data file directly on a server.
	if err := vfs.WriteFile(servers[0].FS, "/mydpfs/orphan.data", []byte("lost"), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.OrphanedData) != 1 {
		t.Fatalf("orphans = %v", report.OrphanedData)
	}
	if _, err := d.Fsck(FsckOptions{RemoveOrphans: true}); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(servers[0].FS, "/mydpfs/orphan.data") {
		t.Error("orphan not reclaimed")
	}
	// The referenced file survived.
	if data, err := vfs.ReadFile(d, "/keep"); err != nil || string(data) != "x" {
		t.Errorf("referenced file damaged: %q, %v", data, err)
	}
}

func TestFsckFlagsBadStubs(t *testing.T) {
	d, _ := newDPFS(t, 1)
	if err := vfs.WriteFile(d.Meta(), "/junk", []byte("not a stub at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.BadStubs) != 1 {
		t.Errorf("bad stubs = %v", report.BadStubs)
	}
	// Repair removes them: a partial stub has no data behind it.
	if _, err := d.Fsck(FsckOptions{RemoveDangling: true}); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(d.Meta(), "/junk") {
		t.Error("bad stub not removed by repair")
	}
}

// TestFsckValidatesStripes: a metadata tree holding both ordinary
// stubs and stripe descriptors is checked end to end — the stripe is
// recognized (not misreported as a bad stub), its members are
// digested, and missing or geometry-inconsistent members are reported
// as damage.
func TestFsckValidatesStripes(t *testing.T) {
	d, servers := newDPFS(t, 3)
	s, err := NewStriped(d.Meta(), servers, StripeOptions{StripeSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	if err := vfs.WriteFile(s, "/striped", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(d, "/plain", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean stripe reported dirty: %s", rep)
	}
	if rep.Stripes != 1 {
		t.Errorf("stripes recognized = %d, want 1", rep.Stripes)
	}
	digests := rep.StripeDigests["/striped"]
	if len(digests) != 3 {
		t.Fatalf("stripe digests = %v, want 3 members", digests)
	}
	for k, sum := range digests {
		if sum == "" {
			t.Errorf("member %d has no digest", k)
		}
	}

	// Geometry damage: a member shorter than the logical size demands.
	raw, err := vfs.ReadFile(d.Meta(), "/striped")
	if err != nil {
		t.Fatal(err)
	}
	desc, ok := parseStripeDesc(raw)
	if !ok {
		t.Fatal("descriptor no longer parses")
	}
	memberPath := func(k int) (vfs.FileSystem, string) {
		for i := range servers {
			if servers[i].Name == desc.Servers[k] {
				return servers[i].FS, pathutil.Join(servers[i].Dir, desc.Base)
			}
		}
		t.Fatalf("no server %q", desc.Servers[k])
		return nil, ""
	}
	fs1, p1 := memberPath(1)
	if err := fs1.Truncate(p1, 50); err != nil {
		t.Fatal(err)
	}
	rep, err = d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.StripeDamaged) != 1 {
		t.Fatalf("truncated member not reported: %s (%v)", rep, rep.StripeDamaged)
	}

	// Missing member: the data file is gone entirely.
	if err := fs1.Unlink(p1); err != nil {
		t.Fatal(err)
	}
	rep, err = d.Fsck(FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StripeDamaged) != 1 {
		t.Fatalf("missing member not reported: %v", rep.StripeDamaged)
	}
	// Member files are referenced, never orphans — even while damaged.
	if len(rep.OrphanedData) != 0 {
		t.Errorf("stripe members misreported as orphans: %v", rep.OrphanedData)
	}
}

// TestFsckKeepsDataItCannotAccountFor: a check run with server names
// other than the ones the tree was written with sees every stub point
// at an unknown server and every data file as unreferenced. It must
// report that and reclaim nothing: the data is not orphaned, the check
// is misnamed.
func TestFsckKeepsDataItCannotAccountFor(t *testing.T) {
	var servers []DataServer
	for i := 0; i < 2; i++ {
		servers = append(servers, DataServer{Name: fmt.Sprintf("n%d", i), FS: localFS(t), Dir: "/vol"})
	}
	meta := localFS(t)
	d, err := NewDPFS(meta, servers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/b", "/c", "/d"} {
		if err := vfs.WriteFile(d, p, []byte("keep "+p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	renamed := make([]DataServer, len(servers))
	for i, s := range servers {
		renamed[i] = DataServer{Name: fmt.Sprintf("127.0.0.1:%d", 9094+i), FS: s.FS, Dir: s.Dir}
	}
	wrong, err := NewDPFS(meta, renamed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wrong.Fsck(FsckOptions{RemoveOrphans: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Unreachable) != 4 || len(rep.OrphanedData) != 4 {
		t.Errorf("misnamed check = %s, want 4 unreachable and 4 orphans reported", rep)
	}
	left := 0
	for _, s := range servers {
		ents, err := s.FS.ReadDir(s.Dir)
		if err != nil {
			t.Fatal(err)
		}
		left += len(ents)
	}
	if left != 4 {
		t.Errorf("%d of 4 data files survive", left)
	}
	if data, err := vfs.ReadFile(d, "/a"); err != nil || string(data) != "keep /a" {
		t.Errorf("/a = %q, %v", data, err)
	}
}
