package abstraction

import (
	"strings"
	"testing"

	"tss/internal/cache"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// capSet names the capabilities present in c.
func capSet(c vfs.Capability) string {
	var s []string
	add := func(name string, present bool) {
		if present {
			s = append(s, name)
		}
	}
	add("OpenStater", c.OpenStater != nil)
	add("FileGetter", c.FileGetter != nil)
	add("FilePutter", c.FilePutter != nil)
	add("PartGetter", c.PartGetter != nil)
	add("PartPutter", c.PartPutter != nil)
	add("Checksummer", c.Checksummer != nil)
	add("Leaser", c.Leaser != nil)
	add("Reconnector", c.Reconnector != nil)
	add("Closer", c.Closer != nil)
	return strings.Join(s, " ")
}

// TestCapabilitiesForwarded (ROADMAP 9f, for the layers of the paper's
// stacks): a wrapper offers what it wraps. CFS hides nothing of its
// connection and the cache adds only its own Closer; DSFS and the
// mirror, which have a method set of their own, answer OpenStat out of
// the open they do anyway — the stat must cost no request — and what
// they report is what Fstat on the returned file reports.
func TestCapabilitiesForwarded(t *testing.T) {
	c := startChirpCluster(t, 3)
	requests := func() (n int64) {
		for _, s := range c.servers {
			n += s.Stats.Requests.Load()
		}
		return n
	}

	conn := vfs.Capabilities(c.clients[0])
	cfs := NewCFS(c.names[0], c.clients[0])
	if got, want := capSet(vfs.Capabilities(cfs)), capSet(conn); got != want || conn.Reconnector == nil || conn.Leaser == nil {
		t.Errorf("CFS offers [%s], its connection [%s]", got, want)
	}
	// A local directory offers far less; neither layer invents any.
	local := localFS(t)
	if got, want := capSet(vfs.Capabilities(NewCFS("local", local))), capSet(vfs.Capabilities(local)); got != want {
		t.Errorf("CFS over a local directory offers [%s], the directory [%s]", got, want)
	}
	cached := cache.New(cfs, cache.Options{})
	defer cached.Close()
	for _, inner := range []vfs.FileSystem{cfs, local} {
		want := vfs.Capabilities(inner)
		want.Closer = cached
		if got, want := capSet(vfs.Capabilities(cache.New(inner, cache.Options{}))), capSet(want); got != want {
			t.Errorf("cache offers [%s] over a layer that offers [%s]; want the same plus its own Closer", got, want)
		}
	}

	mirror, err := NewMirror(c.clients[1], c.clients[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.clients[0].Mkdir("/stripe-meta", 0o755); err != nil {
		t.Fatal(err)
	}
	stripeMeta, err := vfs.Subtree(c.clients[0], "/stripe-meta")
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStriped(stripeMeta, []DataServer{
		{Name: c.names[1], FS: c.clients[1], Dir: "/stripe-data"},
		{Name: c.names[2], FS: c.clients[2], Dir: "/stripe-data"},
	}, StripeOptions{StripeSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	stacks := []struct {
		name     string
		fs       vfs.FileSystem
		openStat bool
	}{
		{"CFS", cfs, true},
		{"DSFS", buildDSFS(t, c), true},
		{"mirror", mirror, true},
		{"cache over CFS", cached, true},
		{"stripe", striped, false},
	}
	for _, st := range stacks {
		caps := vfs.Capabilities(st.fs)
		if (st.openStat && caps.OpenStater == nil) || caps.Reconnector == nil {
			t.Errorf("%s offers [%s], want at least OpenStater and Reconnector", st.name, capSet(caps))
			continue
		}
		if err := vfs.WriteFile(st.fs, "/probe.dat", []byte("twelve bytes"), 0o644); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !st.openStat {
			// The stripe's Reconnect reaches the metadata server and
			// every member: with all three connections dropped, one call
			// brings the file back.
			for _, cl := range c.clients {
				cl.Close()
			}
			if _, err := vfs.ReadFile(st.fs, "/probe.dat"); !resilient.Retryable(err) {
				t.Fatalf("%s: read with every connection dropped = %v, want a transport error", st.name, err)
			}
			if err := caps.Reconnector.Reconnect(); err != nil {
				t.Fatalf("%s: Reconnect: %v", st.name, err)
			}
			if got, err := vfs.ReadFile(st.fs, "/probe.dat"); err != nil || string(got) != "twelve bytes" {
				t.Errorf("%s: read after Reconnect = %q, %v", st.name, got, err)
			}
			continue
		}
		for _, flags := range []int{vfs.O_RDONLY, vfs.O_WRONLY} {
			before := requests()
			plain, err := st.fs.Open("/probe.dat", flags, 0)
			if err != nil {
				t.Fatalf("%s: open: %v", st.name, err)
			}
			openCost := requests() - before
			plain.Close()

			before = requests()
			f, fi, err := caps.OpenStater.OpenStat("/probe.dat", flags, 0)
			if err != nil {
				t.Fatalf("%s: OpenStat: %v", st.name, err)
			}
			if cost := requests() - before; cost != openCost {
				t.Errorf("%s: OpenStat(flags %#x) cost %d requests, a plain open %d: the stat must ride on the open", st.name, flags, cost, openCost)
			}
			after, err := f.Fstat()
			f.Close()
			if err != nil || fi != after || fi.Size != 12 || fi.Name != "probe.dat" || fi.Inode == 0 {
				t.Errorf("%s: OpenStat(flags %#x) reports %+v, Fstat %+v (%v); want the same 12-byte probe.dat", st.name, flags, fi, after, err)
			}
		}
	}
}
