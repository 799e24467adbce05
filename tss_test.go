package tss_test

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"tss"
)

func tempDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "tss-facade-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func TestFacadeDeployDialReadWrite(t *testing.T) {
	nw := tss.NewSimNetwork()
	stop, err := tss.StartFileServerOn(nw, "fs.sim", tempDir(t), tss.FileServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	cli, err := tss.DialSim(nw, "fs.sim", "fs.sim") // the owner
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := tss.WriteFile(cli, "/hello", []byte("facade"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := tss.ReadFile(cli, "/hello")
	if err != nil || string(data) != "facade" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// stop is idempotent.
	stop()
	stop()
}

func TestFacadeRootACLAndReserve(t *testing.T) {
	nw := tss.NewSimNetwork()
	stop, err := tss.StartFileServerOn(nw, "fs.sim", tempDir(t), tss.FileServerOptions{
		RootACL: map[string]string{"hostname:*.campus": "v(rwl)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	visitor, err := tss.DialSim(nw, "fs.sim", "lab1.campus")
	if err != nil {
		t.Fatal(err)
	}
	defer visitor.Close()
	if err := visitor.Mkdir("/mine", 0o755); err != nil {
		t.Fatalf("reserve mkdir through facade: %v", err)
	}
	if err := tss.WriteFile(visitor, "/mine/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tss.WriteFile(visitor, "/toplevel", []byte("x"), 0o644); tss.AsErrno(err) != tss.EACCES {
		t.Errorf("top-level write with only V = %v", err)
	}
}

func TestFacadeTCPServer(t *testing.T) {
	stop, addr, err := tss.StartFileServerTCP("127.0.0.1:0", tempDir(t), tss.FileServerOptions{
		Owner: "hostname:localhost",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cli, err := tss.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := tss.WriteFile(cli, "/t", []byte("over tcp"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := cli.Stat("/t")
	if err != nil || fi.Size != 8 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
}

func TestFacadeDSFSAndAdapter(t *testing.T) {
	nw := tss.NewSimNetwork()
	var servers []tss.DataServer
	var meta *tss.Client
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("n%d.sim", i)
		stop, err := tss.StartFileServerOn(nw, name, tempDir(t), tss.FileServerOptions{
			RootACL: map[string]string{"hostname:*": "rwlda"},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		cli, err := tss.DialSim(nw, name, "user.sim")
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if meta == nil {
			meta = cli
		}
		servers = append(servers, tss.DataServer{Name: name, FS: cli, Dir: "/data"})
	}
	dsfs, err := tss.NewDSFS(meta, "/tree", servers, "user.sim")
	if err != nil {
		t.Fatal(err)
	}
	a := tss.NewAdapter(tss.AdapterOptions{})
	if err := a.MountFS("/dsfs/vol", dsfs); err != nil {
		t.Fatal(err)
	}
	if err := tss.MkdirAll(a, "/dsfs/vol/out", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tss.WriteFile(a, "/dsfs/vol/out/r1", []byte("result"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := tss.ReadFile(a, "/dsfs/vol/out/r1")
	if err != nil || string(data) != "result" {
		t.Fatalf("dsfs through adapter: %q, %v", data, err)
	}
}

func TestFacadeDPFSAggregatesCapacity(t *testing.T) {
	local, err := tss.NewLocalFS(tempDir(t))
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := tss.NewLocalFS(tempDir(t))
	s2, _ := tss.NewLocalFS(tempDir(t))
	dpfs, err := tss.NewDPFS(local, []tss.DataServer{
		{Name: "a", FS: s1, Dir: "/d"},
		{Name: "b", FS: s2, Dir: "/d"},
	}, "me")
	if err != nil {
		t.Fatal(err)
	}
	if err := tss.WriteFile(dpfs, "/f", []byte("spread"), 0o644); err != nil {
		t.Fatal(err)
	}
	one, _ := s1.StatFS()
	all, err := dpfs.StatFS()
	if err != nil || all.TotalBytes < one.TotalBytes {
		t.Fatalf("aggregate statfs = %+v, %v", all, err)
	}
}

func TestFacadeCatalogDiscovery(t *testing.T) {
	nw := tss.NewSimNetwork()
	cat := tss.NewCatalog(time.Minute)
	stop, err := tss.StartFileServerOn(nw, "adv.sim", tempDir(t), tss.FileServerOptions{
		Catalogs:        []*tss.Catalog{cat},
		CatalogInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	deadline := time.After(3 * time.Second)
	for {
		if _, ok := cat.Lookup("adv.sim"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("server never appeared in the catalog")
		case <-time.After(5 * time.Millisecond):
		}
	}
	rep, _ := cat.Lookup("adv.sim")
	if rep.Owner != "hostname:adv.sim" || rep.TotalBytes <= 0 {
		t.Errorf("catalog report = %+v", rep)
	}
}

// A facade server's catalog report carries its load, as chirpd's does.
func TestFacadeCatalogReportsLoad(t *testing.T) {
	nw := tss.NewSimNetwork()
	cat := tss.NewCatalog(time.Minute)
	stop, err := tss.StartFileServerOn(nw, "busy.sim", tempDir(t), tss.FileServerOptions{
		Catalogs:        []*tss.Catalog{cat},
		CatalogInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cli, err := tss.DialSim(nw, "busy.sim", "busy.sim")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := tss.WriteFile(cli, "/f", []byte("load"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for {
		rep, _ := cat.Lookup("busy.sim")
		if rep.Requests > 0 && rep.Connections > 0 && rep.BytesWritten > 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("catalog report after traffic = %+v, want load", rep)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestFacadeGEMS(t *testing.T) {
	s1, _ := tss.NewLocalFS(tempDir(t))
	s2, _ := tss.NewLocalFS(tempDir(t))
	s3, _ := tss.NewLocalFS(tempDir(t))
	db, err := tss.NewDSDB([]tss.DataServer{
		{Name: "a", FS: s1}, {Name: "b", FS: s2}, {Name: "c", FS: s3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("r1", map[string]string{"k": "v"}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	repl := &tss.Replicator{DB: db, BudgetBytes: 1 << 20}
	if _, err := repl.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := db.Query(map[string]string{"k": "v"})
	if err != nil || len(recs) != 1 || len(recs[0].Replicas) != 3 {
		t.Fatalf("query = %+v, %v", recs, err)
	}
	aud := &tss.Auditor{DB: db}
	rep, err := aud.Audit()
	if err != nil || rep.Missing != 0 {
		t.Fatalf("audit = %+v, %v", rep, err)
	}
}

func TestFacadeMirrorAndSync(t *testing.T) {
	a, _ := tss.NewLocalFS(tempDir(t))
	b, _ := tss.NewLocalFS(tempDir(t))
	m, err := tss.NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := tss.WriteFile(m, "/f", []byte("mirrored"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, r := range []tss.FileSystem{a, b} {
		data, err := tss.ReadFile(r, "/f")
		if err != nil || string(data) != "mirrored" {
			t.Errorf("replica %d: %q, %v", i, data, err)
		}
	}
	// A new, empty third replica is filled by a repairing scrub.
	c, _ := tss.NewLocalFS(tempDir(t))
	m3, err := tss.NewMirrorOptions(tss.MirrorOptions{}, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.Scrub(context.Background(), tss.ScrubOptions{Repair: true}); err != nil {
		t.Fatal(err)
	}
	if data, _ := tss.ReadFile(c, "/f"); string(data) != "mirrored" {
		t.Error("repairing scrub did not copy")
	}
}

func TestFacadeStriped(t *testing.T) {
	meta, _ := tss.NewLocalFS(tempDir(t))
	s1, _ := tss.NewLocalFS(tempDir(t))
	s2, _ := tss.NewLocalFS(tempDir(t))
	striped, err := tss.NewStriped(meta, []tss.DataServer{
		{Name: "a", FS: s1, Dir: "/d"},
		{Name: "b", FS: s2, Dir: "/d"},
	}, 1024, "me")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := tss.WriteFile(striped, "/big", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := tss.ReadFile(striped, "/big")
	if err != nil || len(got) != len(payload) {
		t.Fatalf("striped read: %d bytes, %v", len(got), err)
	}
}

func TestFacadeFsck(t *testing.T) {
	meta, _ := tss.NewLocalFS(tempDir(t))
	data, _ := tss.NewLocalFS(tempDir(t))
	dpfs, err := tss.NewDPFS(meta, []tss.DataServer{{Name: "x", FS: data, Dir: "/d"}}, "me")
	if err != nil {
		t.Fatal(err)
	}
	if err := tss.WriteFile(dpfs, "/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage: delete the data file behind the stub.
	ents, _ := data.ReadDir("/d")
	for _, e := range ents {
		data.Unlink("/d/" + e.Name)
	}
	report, err := tss.Fsck(dpfs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.DanglingStubs) != 1 {
		t.Fatalf("dangling = %v", report.DanglingStubs)
	}
	if _, err := tss.Fsck(dpfs, true); err != nil {
		t.Fatal(err)
	}
	after, _ := tss.Fsck(dpfs, false)
	if !after.Clean() {
		t.Errorf("after repair: %s", after)
	}
	// Fsck on a non-Dist filesystem is rejected.
	if _, err := tss.Fsck(meta, false); err == nil {
		t.Error("fsck of plain fs accepted")
	}
}

func TestFacadeRecoverIndex(t *testing.T) {
	s1, _ := tss.NewLocalFS(tempDir(t))
	s2, _ := tss.NewLocalFS(tempDir(t))
	servers := []tss.DataServer{{Name: "a", FS: s1}, {Name: "b", FS: s2}}
	db, err := tss.NewDSDB(servers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put("rec1", nil, []byte("survive")); err != nil {
		t.Fatal(err)
	}
	idx, err := tss.RecoverIndex(servers)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := tss.NewDSDBWithIndex(idx, servers)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := db2.Index().List()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records", len(recs))
	}
	data, err := db2.Read(recs[0])
	if err != nil || string(data) != "survive" {
		t.Fatalf("recovered read: %q, %v", data, err)
	}
}

func TestFacadeCatalogAdapter(t *testing.T) {
	nw := tss.NewSimNetwork()
	cat := tss.NewCatalog(time.Minute)
	stop, err := tss.StartFileServerOn(nw, "disc.sim", tempDir(t), tss.FileServerOptions{
		RootACL:         map[string]string{"hostname:*": "rwlda"},
		Catalogs:        []*tss.Catalog{cat},
		CatalogInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	deadline := time.After(3 * time.Second)
	for {
		if _, ok := cat.Lookup("disc.sim"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("never cataloged")
		case <-time.After(5 * time.Millisecond):
		}
	}
	a := tss.NewCatalogAdapter(tss.AdapterOptions{}, cat, nw, "roamer.sim")
	// No explicit mounts: the default namespace resolves via catalog.
	if err := tss.WriteFile(a, "/chirp/disc.sim/found", []byte("via catalog"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := tss.ReadFile(a, "/chirp/disc.sim/found")
	if err != nil || string(data) != "via catalog" {
		t.Fatalf("catalog-resolved read: %q, %v", data, err)
	}
	if _, err := a.Stat("/chirp/unknown.sim/x"); tss.AsErrno(err) != tss.ENOENT {
		t.Errorf("unknown host = %v", err)
	}
}

func TestFacadeTicketAuth(t *testing.T) {
	issuer, err := tss.NewTicketIssuer()
	if err != nil {
		t.Fatal(err)
	}
	nw := tss.NewSimNetwork()
	stop, err := tss.StartFileServerOn(nw, "tik.sim", tempDir(t), tss.FileServerOptions{
		RootACL:       map[string]string{"ticket:collab-*": "rwl"},
		TicketIssuers: []*tss.TicketIssuer{issuer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	ticket, key, err := issuer.Issue("collab-7", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := tss.DialSimWithTicket(nw, "tik.sim", ticket, key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	who, _ := cli.Whoami()
	if who != "ticket:collab-7" {
		t.Errorf("whoami = %q", who)
	}
	if err := tss.WriteFile(cli, "/shared", []byte("by ticket"), 0o644); err != nil {
		t.Fatalf("ticket holder denied: %v", err)
	}
	// A ticket from a different issuer is rejected at authentication.
	rogue, _ := tss.NewTicketIssuer()
	badTicket, badKey, _ := rogue.Issue("collab-9", time.Hour)
	if _, err := tss.DialSimWithTicket(nw, "tik.sim", badTicket, badKey); err == nil {
		t.Error("rogue ticket authenticated")
	}
}
