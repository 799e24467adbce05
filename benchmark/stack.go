package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tss/internal/abstraction"
	"tss/internal/adapter"
	"tss/internal/auth"
	"tss/internal/cache"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// Boundary names, outermost first. A stack lists only the ones it has.
const (
	layerApp         = "app"
	layerAdapter     = "adapter"
	layerCache       = "cache"
	layerAbstraction = "abstraction"
	layerClient      = "chirp_client"
)

// clientHost is the name the benchmark's connections present on the
// simulated network; over loopback TCP the server resolves the peer to
// "localhost" by itself.
const clientHost = "bench"

// transport is how a stack reaches its servers.
type transport struct {
	name   string // recorded with the result
	nw     *netsim.Network
	prof   netsim.LinkProfile
	server int // servers started on this transport, for naming
}

func loopbackTCP() *transport { return &transport{name: "loopback"} }

func simulated(prof netsim.LinkProfile, name string) *transport {
	return &transport{name: name, nw: netsim.NewNetwork(), prof: prof}
}

// owner is the subject the servers grant all rights to: the one the
// benchmark's own connections authenticate as.
func (t *transport) owner() auth.Subject {
	if t.nw != nil {
		return auth.Subject("hostname:" + clientHost)
	}
	return "hostname:localhost"
}

func (t *transport) listen() (net.Listener, string, error) {
	if t.nw != nil {
		t.server++
		name := fmt.Sprintf("chirpd%d", t.server)
		l, err := t.nw.Listen(name)
		return l, name, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return l, l.Addr().String(), nil
}

// dialer returns the Dial function for addr; on the simulated network
// prof shapes the link (seeding dials unshaped, the measured pool dials
// with the transport's profile).
func (t *transport) dialer(addr string, prof netsim.LinkProfile) func() (net.Conn, error) {
	if t.nw != nil {
		return func() (net.Conn, error) { return t.nw.DialFrom(clientHost, addr, prof) }
	}
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) }
}

// node is one in-process chirpd: a chirp.Server over a vfs.LocalFS on
// its own export directory, accepting on the stack's transport.
type node struct {
	srv    *chirp.Server
	ln     net.Listener
	addr   string
	root   string        // export directory on the host
	reg    *obs.Registry // ServerConfig.Metrics; traced stacks only
	served chan struct{} // closed when Serve returns
}

func startNode(t *transport, root string, metrics bool) (*node, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	n := &node{root: root, served: make(chan struct{})}
	if metrics {
		n.reg = obs.NewRegistry()
	}
	l, addr, err := t.listen()
	if err != nil {
		return nil, err
	}
	n.ln, n.addr = l, addr
	n.srv, err = chirp.NewServer(root, chirp.ServerConfig{
		Name:      addr,
		Owner:     t.owner(),
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}, &auth.UnixVerifier{}},
		Metrics:   n.reg,
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	go func() {
		defer close(n.served)
		n.srv.Serve(l)
	}()
	return n, nil
}

// stop drains the server and waits until its accept loop has returned.
func (n *node) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	n.ln.Close()
	<-n.served
	return err
}

// export opens the node's export directory with a fresh vfs.LocalFS:
// the audit's view, which shares nothing with the serving path.
func (n *node) export() (*vfs.LocalFS, error) { return vfs.NewLocalFS(n.root) }

// poolSize is the Pool width every workload uses (tss -pool 2).
const poolSize = 2

func clientConfig(t *transport, addr string, prof netsim.LinkProfile) chirp.ClientConfig {
	return chirp.ClientConfig{
		Dial:        t.dialer(addr, prof),
		Credentials: []auth.Credential{auth.HostnameCredential{}, auth.UnixCredential{}},
		Timeout:     30 * time.Second,
		PoolSize:    poolSize,
	}
}

// stack is one assembled system under test: servers, transports and
// the client-side layers, with the handles the counters are read from.
type stack struct {
	tr    *transport
	dir   string // everything this stack writes lives under here
	nodes []*node
	pools []*chirp.Pool

	adapter *adapter.Adapter
	cache   *cache.FS
	mirror  *abstraction.MirrorFS

	// top is what the units drive; local is the client-side scratch
	// filesystem of the transfer workload (nil elsewhere).
	top   vfs.FileSystem
	local *vfs.LocalFS

	rec *recorder // nil on end-to-end runs
}

// newStack starts count servers under dir and dials one Pool to each.
// layers names the boundaries the workload will wrap, outermost first.
func newStack(ctx context.Context, tr *transport, dir string, count int, layers []string, traced bool) (*stack, error) {
	st := &stack{tr: tr, dir: dir}
	if traced {
		var err error
		if st.rec, err = newRecorder(layers); err != nil {
			return nil, err
		}
	}
	for i := 0; i < count; i++ {
		n, err := startNode(tr, filepath.Join(dir, fmt.Sprintf("export%d", i)), traced)
		if err != nil {
			st.close(ctx)
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		p, err := chirp.NewPool(clientConfig(tr, n.addr, tr.prof))
		if err != nil {
			st.close(ctx)
			return nil, err
		}
		st.pools = append(st.pools, p)
	}
	return st, nil
}

// client returns pool i behind the chirp_client boundary.
func (st *stack) client(i int) vfs.FileSystem {
	return wrap(st.pools[i], st.rec, layerClient)
}

// mount assembles the adapter over fs (already wrapped in its own
// boundary) and makes the adapter boundary the stack's top.
func (st *stack) mount(fs vfs.FileSystem) error {
	st.adapter = adapter.New(adapter.Config{})
	if err := st.adapter.MountFS("/", fs); err != nil {
		return err
	}
	st.top = wrap(st.adapter, st.rec, layerAdapter)
	return nil
}

// close releases everything the stack holds, in dependency order, and
// removes its directory. The first error is returned; teardown goes on.
func (st *stack) close(ctx context.Context) error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.cache != nil {
		note(st.cache.Close())
	}
	for _, p := range st.pools {
		note(p.Close())
	}
	for _, n := range st.nodes {
		note(n.stop(ctx))
	}
	if st.rec != nil {
		note(st.rec.release())
	}
	note(os.RemoveAll(st.dir))
	return first
}

// counters is one reading of the public counters of every layer.
type counters struct {
	requests, bytesIn, bytesOut      int64
	leaseGrants, leaseBreaks         int64
	shed, deadlineRejects            int64
	cache                            cache.Stats
	retries, reconnects, gaveUp      int64
	budgetExhausted, hedges, tripped int64
}

func (st *stack) counters() counters {
	var c counters
	for _, n := range st.nodes {
		s := &n.srv.Stats
		c.requests += s.Requests.Load()
		c.bytesIn += s.BytesWriten.Load()
		c.bytesOut += s.BytesRead.Load()
		c.leaseGrants += s.LeaseGrants.Load()
		c.leaseBreaks += s.LeaseBreaks.Load()
		c.shed += s.Shed.Load()
		c.deadlineRejects += s.DeadlineRejects.Load()
	}
	if st.cache != nil {
		c.cache = st.cache.Stats()
	}
	if a := st.adapter; a != nil {
		c.retries = a.Stats.Retries.Load()
		c.reconnects = a.Stats.Reconnects.Load()
		c.gaveUp = a.Stats.GaveUp.Load()
		c.budgetExhausted = a.Stats.BudgetExhausted.Load()
	}
	if m := st.mirror; m != nil {
		c.hedges = m.Stats.Hedges.Load()
		c.tripped = m.Stats.Trips.Load()
	}
	return c
}

// serverRPC sums the servers' per-verb service-time histograms
// (ServerConfig.Metrics, traced stacks only) into a count and a total.
// The pipelined deadline prefix is not an RPC and is left out, as the
// server's own request counter leaves it out.
func (st *stack) serverRPC() (count, sumNS, bulkFast int64) {
	for _, n := range st.nodes {
		if n.reg == nil {
			continue
		}
		snap := n.reg.Snapshot()
		for name, h := range snap.Histograms {
			if !strings.HasPrefix(name, "chirp_server.rpc.") || name == "chirp_server.rpc.deadline" {
				continue
			}
			count += h.Count
			sumNS += h.SumNS
		}
		bulkFast += snap.Counters["chirp_server.bulk_fastpath"] + snap.Counters["chirp_server.multipart_fastpath"]
	}
	return count, sumNS, bulkFast
}

func (st *stack) conns() int {
	total := 0
	for _, p := range st.pools {
		total += p.Conns()
	}
	return total
}
