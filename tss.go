// Package tss is the public API of the tactical storage system — a Go
// implementation of "Separating Abstractions from Resources in a
// Tactical Storage System" (Thain et al., SC 2005).
//
// A tactical storage system separates storage *resources* from storage
// *abstractions*. Resources are Chirp personal file servers that any
// user can deploy with one call and no privileges; abstractions are
// the structures users compose from them — a central filesystem (CFS),
// distributed private and shared filesystems (DPFS/DSFS), and a
// distributed shared database (DSDB/GEMS). An adapter attaches
// applications to abstractions transparently, with reconnection and
// stale-handle semantics.
//
// Everything speaks the same Unix-like interface, vfs.FileSystem —
// the paper's recursive storage abstraction — so a remote server, a
// local directory, a multi-server filesystem, and an adapter namespace
// are interchangeable.
//
// Quick start (one process, simulated network):
//
//	nw := tss.NewSimNetwork()
//	stop, _ := tss.StartFileServerOn(nw, "fs.sim", "/srv/export", tss.FileServerOptions{})
//	defer stop()
//	client, _ := tss.DialSim(nw, "fs.sim", "me")
//	a := tss.NewAdapter(tss.AdapterOptions{})
//	a.MountFS("/data", client)
//	f, _ := a.Open("/data/hello", tss.O_WRONLY|tss.O_CREAT, 0o644)
//	f.Pwrite([]byte("hi"), 0)
//	f.Close()
package tss

import (
	"net"
	"sort"
	"sync"
	"time"

	"tss/internal/abstraction"
	"tss/internal/acl"
	"tss/internal/adapter"
	"tss/internal/auth"
	"tss/internal/catalog"
	"tss/internal/chirp"
	"tss/internal/gems"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// Core interface and data types, re-exported from the vfs layer.
type (
	// FileSystem is the recursive Unix-like interface every layer
	// implements.
	FileSystem = vfs.FileSystem
	// File is an open file with positional I/O.
	File = vfs.File
	// FileInfo is portable stat metadata.
	FileInfo = vfs.FileInfo
	// DirEntry is one directory listing entry.
	DirEntry = vfs.DirEntry
	// FSInfo reports filesystem capacity.
	FSInfo = vfs.FSInfo
	// Errno is the portable error number model.
	Errno = vfs.Errno
)

// Open flags, as used by FileSystem.Open.
const (
	O_RDONLY = vfs.O_RDONLY
	O_WRONLY = vfs.O_WRONLY
	O_RDWR   = vfs.O_RDWR
	O_CREAT  = vfs.O_CREAT
	O_EXCL   = vfs.O_EXCL
	O_TRUNC  = vfs.O_TRUNC
	O_APPEND = vfs.O_APPEND
	O_SYNC   = vfs.O_SYNC
)

// Frequently tested error numbers.
const (
	ENOENT   = vfs.ENOENT
	EACCES   = vfs.EACCES
	EEXIST   = vfs.EEXIST
	ESTALE   = vfs.ESTALE
	ENOTCONN = vfs.ENOTCONN
)

// AsErrno extracts the protocol error number from any error.
func AsErrno(err error) Errno { return vfs.AsErrno(err) }

// NewLocalFS exports a host directory through the FileSystem
// interface, confined beneath root.
func NewLocalFS(root string) (FileSystem, error) { return vfs.NewLocalFS(root) }

// ReadFile, WriteFile and CopyFile are convenience helpers over any
// FileSystem.
var (
	ReadFile  = vfs.ReadFile
	WriteFile = vfs.WriteFile
	CopyFile  = vfs.CopyFile
	MkdirAll  = vfs.MkdirAll
)

// ---- Resource layer ----

// FileServerOptions configures a deployed file server.
type FileServerOptions struct {
	// Owner is the subject granted all rights on a fresh root
	// (default "hostname:<listen name>").
	Owner string
	// RootACL seeds additional root ACL entries, e.g.
	// {"hostname:*.cse.nd.edu": "v(rwl)"}.
	RootACL map[string]string
	// Catalogs lists in-process catalog servers to report to.
	Catalogs []*Catalog
	// CatalogInterval is the reporting period (default 15s).
	CatalogInterval time.Duration
	// TicketIssuers, when non-empty, additionally accepts the ticket
	// authentication method for tickets minted by these issuers.
	TicketIssuers []*TicketIssuer
}

// TicketIssuer mints bearer credentials for collaborators with no
// shared authentication infrastructure; see auth.TicketIssuer.
type TicketIssuer = auth.TicketIssuer

// NewTicketIssuer creates a ticket issuer. Install it in
// FileServerOptions.TicketIssuers on the servers that should accept
// its tickets, and mint with Issue.
func NewTicketIssuer() (*TicketIssuer, error) { return auth.NewTicketIssuer() }

// DialSimWithTicket connects to a file server on a simulated network
// authenticating with a minted ticket.
func DialSimWithTicket(nw *SimNetwork, serverName string, ticket *auth.AuthTicket, key []byte) (*Client, error) {
	return chirp.Dial(chirp.ClientConfig{
		Dial: func() (net.Conn, error) {
			return nw.DialFrom("ticket-holder", serverName, netsim.Loopback)
		},
		Credentials: []auth.Credential{&auth.TicketCredential{Ticket: ticket, Key: key}},
		Timeout:     30 * time.Second,
	})
}

// Catalog is a storage discovery catalog.
type Catalog = catalog.Server

// NewCatalog creates a catalog that evicts servers silent for timeout.
func NewCatalog(timeout time.Duration) *Catalog { return catalog.NewServer(timeout) }

// SimNetwork is an in-process network for single-process deployments,
// tests, and benchmarks.
type SimNetwork = netsim.Network

// NewSimNetwork creates an empty simulated network.
func NewSimNetwork() *SimNetwork { return netsim.NewNetwork() }

func buildServer(name, root string, opts FileServerOptions) (*chirp.Server, func() func(), error) {
	owner := opts.Owner
	if owner == "" {
		owner = "hostname:" + name
	}
	cfg := chirp.ServerConfig{
		Name:  name,
		Owner: auth.Subject(owner),
		Verifiers: []auth.Verifier{
			&auth.HostnameVerifier{},
			&auth.UnixVerifier{},
		},
	}
	if len(opts.TicketIssuers) > 0 {
		tv := &auth.TicketVerifier{}
		for _, ti := range opts.TicketIssuers {
			tv.Issuers = append(tv.Issuers, ti.PublicKey())
		}
		cfg.Verifiers = append(cfg.Verifiers, tv)
	}
	if len(opts.RootACL) > 0 {
		cfg.RootACL = aclFromMap(opts.RootACL)
	}
	srv, err := chirp.NewServer(root, cfg)
	if err != nil {
		return nil, nil, err
	}
	startReporter := func() func() {
		if len(opts.Catalogs) == 0 {
			return func() {}
		}
		var sends []func([]byte) error
		for _, c := range opts.Catalogs {
			sends = append(sends, catalog.SendLocal(c))
		}
		rep := &catalog.Reporter{
			Describe: srv.Report,
			Send:     sends,
			Interval: opts.CatalogInterval,
		}
		stop := make(chan struct{})
		go rep.Run(stop)
		return func() { close(stop) }
	}
	return srv, startReporter, nil
}

// StartFileServerOn deploys a Chirp file server exporting root on a
// simulated network under the given name — the paper's "single
// command with no configuration" deployment. The returned function
// stops the server.
func StartFileServerOn(nw *SimNetwork, name, root string, opts FileServerOptions) (stop func(), err error) {
	srv, startReporter, err := buildServer(name, root, opts)
	if err != nil {
		return nil, err
	}
	l, err := nw.Listen(name)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	stopRep := startReporter()
	var once sync.Once
	return func() { once.Do(func() { stopRep(); l.Close() }) }, nil
}

// StartFileServerTCP deploys a file server on a TCP address.
func StartFileServerTCP(addr, root string, opts FileServerOptions) (stop func(), actualAddr string, err error) {
	srv, startReporter, err := buildServer(addr, root, opts)
	if err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(l)
	stopRep := startReporter()
	var once sync.Once
	return func() { once.Do(func() { stopRep(); l.Close() }) }, l.Addr().String(), nil
}

// Client is a transport to one file server; it implements FileSystem.
type Client = chirp.Client

// DialSim connects to a file server on a simulated network, presenting
// clientName as the host identity.
func DialSim(nw *SimNetwork, serverName, clientName string) (*Client, error) {
	return chirp.Dial(chirp.ClientConfig{
		Dial: func() (net.Conn, error) {
			return nw.DialFrom(clientName, serverName, netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}, auth.UnixCredential{}},
		Timeout:     30 * time.Second,
	})
}

// DialTCP connects to a file server over TCP with the default
// credential set (hostname, unix).
func DialTCP(addr string) (*Client, error) {
	return chirp.DialTCP(addr,
		[]auth.Credential{auth.HostnameCredential{}, auth.UnixCredential{}},
		30*time.Second)
}

// ---- Abstraction layer ----

// DataServer names one storage resource inside an abstraction.
type DataServer = abstraction.DataServer

// NewCFS wraps a server connection as the central filesystem.
func NewCFS(name string, fs FileSystem) *abstraction.CFS {
	return abstraction.NewCFS(name, fs)
}

// NewDPFS builds a distributed private filesystem: metadata in a
// filesystem private to the caller, data across servers.
func NewDPFS(meta FileSystem, servers []DataServer, clientID string) (FileSystem, error) {
	return abstraction.NewDPFS(meta, servers, abstraction.Options{ClientID: clientID})
}

// NewDSFS builds a distributed shared filesystem: metadata on a file
// server too, so multiple clients share one namespace.
func NewDSFS(metaServer FileSystem, metaDir string, servers []DataServer, clientID string) (FileSystem, error) {
	return abstraction.NewDSFS(metaServer, metaDir, servers, abstraction.Options{ClientID: clientID})
}

// NewDSDB builds a distributed shared database over the given servers
// with an in-memory index.
func NewDSDB(servers []DataServer) (*gems.DSDB, error) {
	return gems.NewDSDB(gems.NewMemIndex(), servers)
}

// NewMirror transparently replicates across filesystems (§10:
// "filesystems that transparently ... replicate ... data"): writes fan
// out to every reachable replica, reads come from the first.
func NewMirror(replicas ...FileSystem) (FileSystem, error) {
	return abstraction.NewMirror(replicas...)
}

// MirrorOptions tunes a mirror's resilience machinery: circuit-breaker
// thresholds and re-probe schedule, the hedged-read delay, and the
// health probe issued to demoted replicas.
type MirrorOptions = abstraction.MirrorOptions

// MirrorFS is the replicating filesystem returned by NewMirrorOptions;
// beyond FileSystem it exposes Health() and resilience counters.
type MirrorFS = abstraction.MirrorFS

// NewMirrorOptions builds a mirror with explicit resilience options:
// per-replica circuit breakers stop reads from paying a dead replica's
// timeout, background half-open probes re-admit recovered replicas,
// and an optional hedge races a second replica after a latency
// threshold (§6: recovery without manual intervention).
func NewMirrorOptions(opts MirrorOptions, replicas ...FileSystem) (*MirrorFS, error) {
	return abstraction.NewMirrorOptions(opts, replicas...)
}

// NewStriped stripes file data across servers in fixed-size blocks
// (§10: "filesystems that transparently stripe ... data"), reading and
// writing all members concurrently.
func NewStriped(meta FileSystem, servers []DataServer, stripeSize int64, clientID string) (FileSystem, error) {
	return abstraction.NewStriped(meta, servers, abstraction.StripeOptions{
		StripeSize: stripeSize,
		ClientID:   clientID,
	})
}

// SyncReplica copies everything under root from src to dst — the
// manual repair path for a mirror replica that was down during writes.
func SyncReplica(dst, src FileSystem, root string) error {
	return abstraction.Sync(dst, src, root)
}

// FsckReport summarizes a distributed-filesystem check.
type FsckReport = abstraction.FsckReport

// Fsck cross-checks a DPFS/DSFS built by NewDPFS/NewDSFS: dangling
// stubs and orphaned data are reported and, when repair is true,
// removed (§5's manual recovery, automated).
func Fsck(fs FileSystem, repair bool) (*FsckReport, error) {
	d, ok := fs.(*abstraction.Dist)
	if !ok {
		return nil, vfs.EINVAL
	}
	return d.Fsck(abstraction.FsckOptions{RemoveDangling: repair, RemoveOrphans: repair})
}

// RecoverIndex rebuilds a DSDB index by rescanning server data (§9:
// "the database could even be recovered automatically by rescanning
// the existing file data").
func RecoverIndex(servers []DataServer) (gems.Index, error) {
	return gems.RecoverIndex(servers)
}

// NewDSDBWithIndex builds a DSDB over an existing index — e.g. one
// returned by RecoverIndex or a remote gems.DBClient.
func NewDSDBWithIndex(idx gems.Index, servers []DataServer) (*gems.DSDB, error) {
	return gems.NewDSDB(idx, servers)
}

// GEMS types for preservation workflows.
type (
	// DSDB is the distributed shared database.
	DSDB = gems.DSDB
	// Record is one indexed dataset entry.
	Record = gems.Record
	// Auditor verifies replica location and integrity.
	Auditor = gems.Auditor
	// Replicator fills a storage budget with copies.
	Replicator = gems.Replicator
)

// ---- Adapter ----

// AdapterOptions configures the application adapter.
type AdapterOptions struct {
	// Sync appends O_SYNC to all opens.
	Sync bool
	// MaxRetries bounds reconnection attempts (default 5).
	MaxRetries int
}

// Adapter assembles abstractions into one namespace with transparent
// recovery; it implements FileSystem.
type Adapter = adapter.Adapter

// NewAdapter creates an adapter.
func NewAdapter(opts AdapterOptions) *Adapter {
	return adapter.New(adapter.Config{
		Sync:       opts.Sync,
		MaxRetries: opts.MaxRetries,
	})
}

// NewCatalogAdapter creates an adapter whose default namespace
// resolves /chirp/<name>/... by looking the server up in the catalog
// and dialing it on the simulated network — discovery-driven access,
// the way the paper's tools find storage at run time (§4).
func NewCatalogAdapter(opts AdapterOptions, cat *Catalog, nw *SimNetwork, clientName string) *Adapter {
	return adapter.New(adapter.Config{
		Sync:       opts.Sync,
		MaxRetries: opts.MaxRetries,
		Resolve: func(scheme, host string) (vfs.FileSystem, error) {
			if scheme != "chirp" {
				return nil, vfs.ENOENT
			}
			rep, ok := cat.Lookup(host)
			if !ok {
				return nil, vfs.ENOENT
			}
			return DialSim(nw, rep.Addr, clientName)
		},
	})
}

// Subtree exposes a subdirectory of any filesystem as a filesystem.
func Subtree(fs FileSystem, prefix string) (FileSystem, error) {
	return vfs.Subtree(fs, prefix)
}

// aclFromMap builds an ACL from subject -> rights-spec pairs, e.g.
// {"hostname:*.cse.nd.edu": "v(rwl)"}. Invalid specs are skipped.
func aclFromMap(m map[string]string) *acl.List {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	l := &acl.List{}
	for _, subj := range keys {
		rights, reserve, err := acl.ParseSpec(m[subj])
		if err != nil {
			continue
		}
		l.Set(subj, rights, reserve)
	}
	return l
}
