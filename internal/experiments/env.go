// Package experiments contains one driver per table and figure of the
// paper's evaluation (§7-§9). Each driver assembles the systems under
// test — real Chirp servers, the NFS baseline, adapters, abstractions,
// or the cluster model — runs the paper's workload, and reports rows
// in the same form the paper plots.
//
// The drivers are used both by the root-level Go benchmarks
// (bench_test.go) and by the cmd/tssbench tool, and their output is
// recorded against the paper's numbers in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"tss/internal/adapter"
	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/nfsbase"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// Env owns the machinery of one experiment: a simulated network plus
// any servers and temporary directories created on it.
type Env struct {
	Net *netsim.Network
	// Metrics, when set, receives the counters and RPC histograms of
	// every Chirp server started after.
	Metrics  *obs.Registry
	cleanups []func()
	trips    atomic.Int64
}

// NewEnv creates an empty environment.
func NewEnv() *Env {
	return &Env{Net: netsim.NewNetwork()}
}

// Close releases every resource the environment created.
func (e *Env) Close() {
	for i := len(e.cleanups) - 1; i >= 0; i-- {
		e.cleanups[i]()
	}
	e.cleanups = nil
}

func (e *Env) onClose(f func()) { e.cleanups = append(e.cleanups, f) }

// tripConn counts round trips on a client connection: a reply that
// follows a request is one, however many writes and reads carry them.
type tripConn struct {
	net.Conn
	trips *atomic.Int64
	wrote atomic.Bool
}

func (c *tripConn) Write(p []byte) (int, error) {
	c.wrote.Store(true)
	return c.Conn.Write(p)
}

func (c *tripConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.wrote.Swap(false) {
		c.trips.Add(1)
	}
	return n, err
}

// dial connects the bench client to the named server through a link
// with the given profile, counting round trips for Trips.
func (e *Env) dial(name string, prof netsim.LinkProfile) (net.Conn, error) {
	conn, err := e.Net.DialFrom("bench-client", name, prof)
	if err != nil {
		return nil, err
	}
	return &tripConn{Conn: conn, trips: &e.trips}, nil
}

// Trips returns how many round trips the environment's clients have
// made so far: a count that does not depend on the speed of the host.
func (e *Env) Trips() int64 { return e.trips.Load() }

// TempDir creates a directory removed at Close.
func (e *Env) TempDir() (string, error) {
	dir, err := os.MkdirTemp("", "tss-exp-")
	if err != nil {
		return "", err
	}
	e.onClose(func() { os.RemoveAll(dir) })
	return dir, nil
}

// LocalFS creates a fresh confined local filesystem on a temp dir.
func (e *Env) LocalFS() (*vfs.LocalFS, error) {
	dir, err := e.TempDir()
	if err != nil {
		return nil, err
	}
	return vfs.NewLocalFS(dir)
}

// StartChirp deploys a Chirp file server on the simulated network
// under the given name and returns an authenticated client connected
// through a link with the given profile.
func (e *Env) StartChirp(name string, prof netsim.LinkProfile) (*chirp.Client, *chirp.Server, error) {
	dir, err := e.TempDir()
	if err != nil {
		return nil, nil, err
	}
	srv, err := chirp.NewServer(dir, chirp.ServerConfig{
		Name:      name,
		Owner:     "hostname:bench-client",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		Metrics:   e.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	l, err := e.Net.Listen(name)
	if err != nil {
		return nil, nil, err
	}
	go srv.Serve(l)
	e.onClose(func() { l.Close() })
	cli, err := chirp.Dial(chirp.ClientConfig{
		Dial:        func() (net.Conn, error) { return e.dial(name, prof) },
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     30 * time.Second,
	})
	if err != nil {
		return nil, nil, err
	}
	e.onClose(func() { cli.Close() })
	return cli, srv, nil
}

// DialChirpPool connects a pooled transport of up to size connections
// to a server previously deployed with StartChirp, through links with
// the given profile (each pooled connection gets its own shaped link,
// as separate TCP streams would).
func (e *Env) DialChirpPool(name string, prof netsim.LinkProfile, size int) (*chirp.Pool, error) {
	p, err := chirp.NewPool(chirp.ClientConfig{
		Dial:        func() (net.Conn, error) { return e.dial(name, prof) },
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     30 * time.Second,
		PoolSize:    size,
	})
	if err != nil {
		return nil, err
	}
	e.onClose(func() { p.Close() })
	return p, nil
}

// StartNFS deploys the NFS baseline server and returns a client
// connected through the given link profile.
func (e *Env) StartNFS(name string, prof netsim.LinkProfile) (*nfsbase.Client, error) {
	dir, err := e.TempDir()
	if err != nil {
		return nil, err
	}
	srv, err := nfsbase.NewServer(dir)
	if err != nil {
		return nil, err
	}
	l, err := e.Net.Listen(name)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	e.onClose(func() { l.Close() })
	cli, err := nfsbase.Dial(nfsbase.ClientConfig{
		Dial:    func() (net.Conn, error) { return e.dial(name, prof) },
		Timeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	e.onClose(func() { cli.Close() })
	return cli, nil
}

// AdapterOn wraps fs in an adapter mounted at /m, optionally charging
// trap-emulation overhead, and returns the adapter.
func (e *Env) AdapterOn(fs vfs.FileSystem, emulateTrap bool) *adapter.Adapter {
	cfg := adapter.Config{}
	if emulateTrap {
		tr := adapter.NewTrapEmulator()
		e.onClose(tr.Close)
		cfg.Trap = tr
	}
	a := adapter.New(cfg)
	a.MountFS("/m", fs)
	return a
}

// timeOpWarmup is how many untimed calls timeOp makes first.
const timeOpWarmup = 3

// timeOp runs op iters times and returns the mean latency.
func timeOp(iters int, op func() error) (time.Duration, error) {
	for i := 0; i < timeOpWarmup; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

// mbps converts bytes moved in elapsed to MB/s.
func mbps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / (1 << 20)
}

// fmtDur renders a latency with enough resolution for microsecond ops.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
