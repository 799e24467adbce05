package gems

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"tss/internal/abstraction"
	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

func localFS(t *testing.T) *vfs.LocalFS {
	t.Helper()
	l, err := vfs.NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func newDSDB(t *testing.T, n int) *DSDB {
	t.Helper()
	var servers []abstraction.DataServer
	for i := 0; i < n; i++ {
		servers = append(servers, abstraction.DataServer{
			Name: fmt.Sprintf("disk%d", i),
			FS:   localFS(t),
			Dir:  "/gems",
		})
	}
	d, err := NewDSDB(NewMemIndex(), servers)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// chirpServers starts n Chirp servers on one simulated network, all
// counting into reg, and returns an authenticated client of each.
func chirpServers(t *testing.T, n int, reg *obs.Registry) []*chirp.Client {
	t.Helper()
	nw := netsim.NewNetwork()
	var clis []*chirp.Client
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d.sim", i)
		srv, err := chirp.NewServer(t.TempDir(), chirp.ServerConfig{
			Name:      name,
			Owner:     "hostname:client.sim",
			Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := nw.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { l.Close() })
		cli, err := chirp.Dial(chirp.ClientConfig{
			Dial:        func() (net.Conn, error) { return nw.DialFrom("client.sim", name, netsim.Loopback) },
			Credentials: []auth.Credential{auth.HostnameCredential{}},
			Timeout:     5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		clis = append(clis, cli)
	}
	return clis
}

func TestMemIndexCRUD(t *testing.T) {
	idx := NewMemIndex()
	r := Record{ID: "sim001", Attrs: map[string]string{"protein": "ww", "temp": "300"}, Size: 10}
	if err := idx.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(r); err == nil {
		t.Error("duplicate insert accepted")
	}
	got, found, err := idx.Get("sim001")
	if err != nil || !found || got.Attrs["protein"] != "ww" {
		t.Fatalf("get = %+v, %v, %v", got, found, err)
	}
	r.Size = 20
	if err := idx.Update(r); err != nil {
		t.Fatal(err)
	}
	got, _, _ = idx.Get("sim001")
	if got.Size != 20 {
		t.Error("update lost")
	}
	if err := idx.Update(Record{ID: "nope"}); err == nil {
		t.Error("update of missing record accepted")
	}
	if err := idx.Delete("sim001"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := idx.Get("sim001"); found {
		t.Error("delete did not remove")
	}
}

func TestMemIndexQuery(t *testing.T) {
	idx := NewMemIndex()
	for i := 0; i < 10; i++ {
		temp := "300"
		if i%2 == 0 {
			temp = "310"
		}
		idx.Insert(Record{ID: fmt.Sprintf("r%02d", i), Attrs: map[string]string{"temp": temp, "protein": "ww"}})
	}
	hot, err := idx.Query(map[string]string{"temp": "310"})
	if err != nil || len(hot) != 5 {
		t.Fatalf("query = %d records, %v", len(hot), err)
	}
	both, _ := idx.Query(map[string]string{"temp": "310", "protein": "ww"})
	if len(both) != 5 {
		t.Errorf("conjunctive query = %d", len(both))
	}
	none, _ := idx.Query(map[string]string{"temp": "999"})
	if len(none) != 0 {
		t.Errorf("empty query = %d", len(none))
	}
	all, _ := idx.List()
	if len(all) != 10 || all[0].ID != "r00" {
		t.Errorf("list = %d records, first %s (want sorted)", len(all), all[0].ID)
	}
	// Records are isolated copies.
	all[0].Attrs["temp"] = "mutated"
	fresh, _, _ := idx.Get("r00")
	if fresh.Attrs["temp"] == "mutated" {
		t.Error("index returned aliased record")
	}
}

func TestDSDBPutQueryRead(t *testing.T) {
	d := newDSDB(t, 3)
	payload := bytes.Repeat([]byte("trajectory"), 1000)
	rec, err := d.Put("sim001", map[string]string{"protein": "villin"}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replicas) != 1 || rec.Size != int64(len(payload)) {
		t.Fatalf("record = %+v", rec)
	}
	got, err := d.Query(map[string]string{"protein": "villin"})
	if err != nil || len(got) != 1 {
		t.Fatalf("query = %v, %v", got, err)
	}
	data, err := d.Read(got[0])
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("read = %d bytes, %v", len(data), err)
	}
	f, err := d.Open(got[0])
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestDSDBDeleteRemovesData(t *testing.T) {
	d := newDSDB(t, 2)
	rec, err := d.Put("x", nil, []byte("bits"))
	if err != nil {
		t.Fatal(err)
	}
	srv := d.server(rec.Replicas[0].Server)
	if err := d.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(srv.FS, rec.Replicas[0].Path) {
		t.Error("data file survived delete")
	}
	if err := d.Delete("x"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("double delete = %v", err)
	}
}

func TestAddReplicaRoundTrip(t *testing.T) {
	d := newDSDB(t, 3)
	rec, err := d.Put("r", nil, []byte("replicate me"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err = d.AddReplica(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = d.AddReplica(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Replicas) != 3 {
		t.Fatalf("replicas = %d", len(rec.Replicas))
	}
	// All servers hold a copy; further replication reports io.EOF.
	if _, err := d.AddReplica(rec); err == nil {
		t.Error("over-replication accepted")
	}
	// Each replica is independently readable.
	for _, rep := range rec.Replicas {
		data, err := vfs.ReadFile(d.server(rep.Server).FS, rep.Path)
		if err != nil || string(data) != "replicate me" {
			t.Errorf("replica on %s: %q, %v", rep.Server, data, err)
		}
	}
}

func TestAuditorDetectsMissingAndCorrupt(t *testing.T) {
	d := newDSDB(t, 3)
	rec, _ := d.Put("a", nil, []byte("aaaa"))
	rec, _ = d.AddReplica(rec)
	recB, _ := d.Put("b", nil, []byte("bbbb"))

	// Damage: delete one replica of a, corrupt b's only replica.
	d.server(rec.Replicas[0].Server).FS.Unlink(rec.Replicas[0].Path)
	vfs.WriteFile(d.server(recB.Replicas[0].Server).FS, recB.Replicas[0].Path, []byte("XXXX"), 0o644)

	a := &Auditor{DB: d}
	report, err := a.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing != 1 {
		t.Errorf("missing = %d, want 1", report.Missing)
	}
	if report.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", report.Corrupt)
	}
	// The damaged replicas are dropped from the records.
	got, _, _ := d.idx.Get("a")
	if len(got.Replicas) != 1 {
		t.Errorf("a replicas = %d, want 1", len(got.Replicas))
	}
	got, _, _ = d.idx.Get("b")
	if len(got.Replicas) != 0 {
		t.Errorf("b replicas = %d, want 0 (corrupt dropped)", len(got.Replicas))
	}
}

func TestAuditorDetectsSameSizeCorruption(t *testing.T) {
	d := newDSDB(t, 1)
	rec, _ := d.Put("a", nil, []byte("12345678"))
	// Same size, different content: only a content digest sees it.
	vfs.WriteFile(d.server(rec.Replicas[0].Server).FS, rec.Replicas[0].Path, []byte("87654321"), 0o644)
	rep, _ := (&Auditor{DB: d}).Audit()
	if rep.Corrupt != 1 {
		t.Errorf("audit missed same-size corruption: %+v", rep)
	}
}

// Audit and recovery digest each replica where it lives: over Chirp
// servers neither moves a byte of file content.
func TestAuditAndRecoverMoveNoContent(t *testing.T) {
	reg := obs.NewRegistry()
	var servers []abstraction.DataServer
	for i, cli := range chirpServers(t, 3, reg) {
		servers = append(servers, abstraction.DataServer{Name: fmt.Sprintf("s%d", i), FS: cli, Dir: "/gems"})
	}
	d, err := NewDSDB(NewMemIndex(), servers)
	if err != nil {
		t.Fatal(err)
	}
	const nRecords, recSize = 4, 64 << 10
	for i := 0; i < nRecords; i++ {
		rec, err := d.Put(fmt.Sprintf("set/rec%d", i), nil, bytes.Repeat([]byte{byte(i)}, recSize))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddReplica(rec); err != nil {
			t.Fatal(err)
		}
	}
	sent := reg.Counter("chirp_server.bytes_read")
	before := sent.Load()
	rep, err := (&Auditor{DB: d}).Audit()
	if err != nil || rep.ReplicasChecked != 2*nRecords || rep.Missing+rep.Corrupt+rep.Unreachable != 0 {
		t.Fatalf("audit = %+v, %v", rep, err)
	}
	recovered, err := RecoverIndex(servers)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := recovered.List(); len(recs) != nRecords {
		t.Errorf("recovered %d records, want %d", len(recs), nRecords)
	}
	if n := sent.Load() - before; n != 0 {
		t.Errorf("audit + recover made the servers send %d content bytes, want 0", n)
	}
}

// The Figure 9 life cycle in miniature: ingest, replicate to budget,
// induce failures, audit, repair.
func TestPreservationCycle(t *testing.T) {
	const nServers = 8
	const nRecords = 7
	const recSize = 1000
	d := newDSDB(t, nServers)
	for i := 0; i < nRecords; i++ {
		if _, err := d.Put(fmt.Sprintf("rec%d", i), nil, bytes.Repeat([]byte{byte(i)}, recSize)); err != nil {
			t.Fatal(err)
		}
	}
	budget := int64(3 * nRecords * recSize) // room for 3 copies of everything
	repl := &Replicator{DB: d, BudgetBytes: budget}
	if _, err := repl.Run(); err != nil {
		t.Fatal(err)
	}
	stored, _ := d.StoredBytes()
	if stored != budget {
		t.Fatalf("stored %d, want full budget %d", stored, budget)
	}
	recs, _ := d.idx.List()
	for _, r := range recs {
		if len(r.Replicas) != 3 {
			t.Errorf("record %s has %d replicas, want 3 (even fill)", r.ID, len(r.Replicas))
		}
	}

	// Induce a failure: wipe two servers' data.
	for _, victim := range []string{"disk0", "disk1"} {
		srv := d.server(victim)
		ents, _ := srv.FS.ReadDir("/gems")
		for _, e := range ents {
			srv.FS.Unlink("/gems/" + e.Name)
		}
	}
	aud := &Auditor{DB: d}
	report, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.Missing == 0 {
		t.Fatal("audit found no damage after wiping two servers")
	}
	// Repair.
	if _, err := repl.Run(); err != nil {
		t.Fatal(err)
	}
	stored, _ = d.StoredBytes()
	if stored != budget {
		t.Errorf("after repair stored %d, want %d", stored, budget)
	}
	// All data still intact.
	recs, _ = d.idx.List()
	for _, r := range recs {
		if _, err := d.Read(r); err != nil {
			t.Errorf("record %s unreadable after repair: %v", r.ID, err)
		}
	}
}

func TestReplicatorPrefersFewestReplicas(t *testing.T) {
	d := newDSDB(t, 4)
	rich, _ := d.Put("rich", nil, []byte("xx"))
	rich, _ = d.AddReplica(rich)
	d.Put("poor", nil, []byte("yy"))
	repl := &Replicator{DB: d, BudgetBytes: 1 << 20}
	if _, err := repl.Step(); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.idx.Get("poor")
	if len(got.Replicas) != 2 {
		t.Errorf("replicator did not prioritize the most vulnerable record")
	}
}

func TestReplicatorRespectsBudget(t *testing.T) {
	d := newDSDB(t, 4)
	d.Put("a", nil, bytes.Repeat([]byte("x"), 100))
	repl := &Replicator{DB: d, BudgetBytes: 250} // room for 2 copies, not 3
	repl.Run()
	stored, _ := d.StoredBytes()
	if stored != 200 {
		t.Errorf("stored %d, want 200 (budget respected)", stored)
	}
}

// The DSDB works identically with a remote index: the journal lives on
// a Chirp server, which is just another recursive abstraction.
func TestDSDBWithRemoteIndex(t *testing.T) {
	cli := chirpServers(t, 1, nil)[0]
	idx, err := OpenJournalIndex(cli, "/index.journal")
	if err != nil {
		t.Fatal(err)
	}
	var servers []abstraction.DataServer
	for i := 0; i < 2; i++ {
		servers = append(servers, abstraction.DataServer{Name: fmt.Sprintf("s%d", i), FS: localFS(t), Dir: "/gems"})
	}
	d, err := NewDSDB(idx, servers)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.Put("remote1", map[string]string{"a": "1"}, []byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddReplica(rec); err != nil {
		t.Fatal(err)
	}
	rs, err := d.Query(map[string]string{"a": "1"})
	if err != nil || len(rs) != 1 || len(rs[0].Replicas) != 2 {
		t.Fatalf("query = %+v, %v", rs, err)
	}
	data, err := d.Read(rs[0])
	if err != nil || string(data) != "over the wire" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// The index outlives its client: reopened from the server, it
	// still holds the record and both replicas.
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	idx2, err := OpenJournalIndex(cli, "/index.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer idx2.Close()
	if got, ok, err := idx2.Get("remote1"); err != nil || !ok || len(got.Replicas) != 2 {
		t.Errorf("reopened index: %+v, %v, %v", got, ok, err)
	}
}

// Record IDs that differ only in how a slash is spelled keep separate
// replica files, and recovery names each by its own ID.
func TestReplicaPathsDoNotCollide(t *testing.T) {
	d := newDSDB(t, 1)
	ids := []string{"a/b", "a_b", "a%2Fb", "a%b"}
	for i, id := range ids {
		if _, err := d.Put(id, nil, []byte(fmt.Sprintf("payload %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := RecoverIndex(d.Servers())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDSDB(recovered, d.Servers())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want := fmt.Sprintf("payload %d", i)
		for name, db := range map[string]*DSDB{"original": d, "recovered": d2} {
			rec, ok, err := db.Index().Get(id)
			if err != nil || !ok {
				t.Errorf("%s index lacks %q: %v", name, id, err)
				continue
			}
			if data, err := db.Read(rec); err != nil || string(data) != want {
				t.Errorf("%s read of %q = %q, %v; want %q", name, id, data, err, want)
			}
		}
	}
	// A file name the flattening cannot have produced is recovered
	// verbatim.
	srv := d.Servers()[0]
	if err := vfs.WriteFile(srv.FS, "/gems/odd%.rep0", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err = RecoverIndex(d.Servers())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := recovered.Get("odd%"); !ok {
		t.Error("undecodable replica name not recovered verbatim")
	}
}

// AddReplica streams server to server: its allocation does not grow
// with the record.
func TestAddReplicaAllocationBound(t *testing.T) {
	d := newDSDB(t, 2)
	rec, err := d.Put("big", nil, bytes.Repeat([]byte("0123456789abcdef"), 1<<20)) // 16 MiB
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err = d.AddReplica(rec)
	runtime.ReadMemStats(&after)
	if err != nil || len(rec.Replicas) != 2 {
		t.Fatalf("add replica = %+v, %v", rec.Replicas, err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("AddReplica of a 16 MiB record allocated %d KiB", alloc>>10)
	if alloc >= 1<<20 {
		t.Errorf("AddReplica of a 16 MiB record allocated %d KiB, want < 1024", alloc>>10)
	}
}

// A source replica that rotted without changing size is passed over;
// with no good source left, nothing is written and nothing indexed.
func TestAddReplicaSkipsCorruptSource(t *testing.T) {
	d := newDSDB(t, 4)
	rec, err := d.Put("r", nil, []byte("good data"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = d.AddReplica(rec); err != nil {
		t.Fatal(err)
	}
	corrupt := func(rep Replica) {
		t.Helper()
		if err := vfs.WriteFile(d.server(rep.Server).FS, rep.Path, []byte("bad! data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(rec.Replicas[0])
	if rec, err = d.AddReplica(rec); err != nil {
		t.Fatalf("add replica with a good second source: %v", err)
	}
	third := rec.Replicas[2]
	if data, err := vfs.ReadFile(d.server(third.Server).FS, third.Path); err != nil || string(data) != "good data" {
		t.Errorf("new replica = %q, %v; want the second source's content", data, err)
	}

	for _, rep := range rec.Replicas {
		corrupt(rep)
	}
	if _, err := d.AddReplica(rec); err == nil {
		t.Fatal("replication from all-corrupt sources succeeded")
	}
	held := map[string]bool{}
	for _, rep := range rec.Replicas {
		held[rep.Server] = true
	}
	for _, srv := range d.Servers() {
		if held[srv.Name] {
			continue
		}
		if ents, err := srv.FS.ReadDir(srv.Dir); err != nil || len(ents) != 0 {
			t.Errorf("target %s holds %v after a failed replication (%v)", srv.Name, ents, err)
		}
	}
	if got, _, _ := d.idx.Get("r"); len(got.Replicas) != 3 {
		t.Errorf("index has %d replicas after a failed replication, want 3", len(got.Replicas))
	}
}
