package abstraction

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// Dist is the shared engine of the distributed filesystems. The
// directory tree (with stub files standing in for file data) lives on
// the metadata filesystem; file data lives on the data servers. With a
// local metadata filesystem this is the DPFS of §5; with a metadata
// filesystem on a Chirp server it is the DSFS — same code, different
// instantiation of the recursive interface.
type Dist struct {
	meta     vfs.FileSystem
	servers  []DataServer
	byName   map[string]*DataServer
	clientID string

	seq atomic.Int64

	mu   sync.Mutex
	next int // round-robin placement cursor
}

var (
	_ vfs.FileSystem = (*Dist)(nil)
	_ vfs.OpenStater = (*Dist)(nil)
)

// Options configures a distributed filesystem.
type Options struct {
	// ClientID distinguishes this client in generated data file names
	// (the paper uses the client IP address). Default "client".
	ClientID string
}

// New assembles a distributed filesystem from a metadata filesystem
// and one or more data servers, creating each server's storage
// directory as needed (the "create new storage directories on each
// server" step of §5).
func New(meta vfs.FileSystem, servers []DataServer, opts Options) (*Dist, error) {
	d, err := assemble(meta, servers, opts)
	if err != nil {
		return nil, err
	}
	for _, s := range d.servers {
		if err := vfs.MkdirAll(s.FS, s.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("abstraction: preparing %s:%s: %w", s.Name, s.Dir, err)
		}
	}
	return d, nil
}

// assemble is New without touching the servers.
func assemble(meta vfs.FileSystem, servers []DataServer, opts Options) (*Dist, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("abstraction: need at least one data server")
	}
	if opts.ClientID == "" {
		opts.ClientID = "client"
	}
	d := &Dist{
		meta:     meta,
		servers:  servers,
		byName:   make(map[string]*DataServer, len(servers)),
		clientID: opts.ClientID,
	}
	for i := range servers {
		s := &servers[i]
		if s.Dir == "" {
			s.Dir = "/"
		}
		n, err := pathutil.Norm(s.Dir)
		if err != nil {
			return nil, vfs.EINVAL
		}
		s.Dir = n
		if _, dup := d.byName[s.Name]; dup {
			return nil, fmt.Errorf("abstraction: duplicate server name %q", s.Name)
		}
		d.byName[s.Name] = s
	}
	return d, nil
}

// Meta exposes the metadata filesystem (used by repair tools).
func (d *Dist) Meta() vfs.FileSystem { return d.meta }

// Servers lists the participating data servers.
func (d *Dist) Servers() []DataServer { return d.servers }

// server returns the data server a stub points at, or nil if that
// server is not part of this abstraction instance.
func (d *Dist) server(name string) *DataServer {
	return d.byName[name]
}

// pickServer chooses a data server for a new file. Round-robin spreads
// data evenly, which is what gives the DSFS its aggregate bandwidth.
func (d *Dist) pickServer() *DataServer {
	d.mu.Lock()
	s := &d.servers[d.next%len(d.servers)]
	d.next++
	d.mu.Unlock()
	return s
}

// uniqueName generates a data file name from the client identity,
// current time, a sequence number, and randomness — the collision
// avoidance recipe of §5.
func (d *Dist) uniqueName() string {
	var r [4]byte
	rand.Read(r[:])
	return fmt.Sprintf("%s.%d.%d.%08x",
		d.clientID, time.Now().Unix(), d.seq.Add(1), binary.BigEndian.Uint32(r[:]))
}

// Open opens or creates a distributed file. Creation follows the
// crash-safe ordering of §5: (1) pick a server and generate a unique
// data name, (2) exclusively create the stub, (3) exclusively create
// the data file. A crash between 2 and 3 leaves a dangling stub that
// opens as ENOENT — never an unreferenced data file.
func (d *Dist) Open(path string, flags int, mode uint32) (vfs.File, error) {
	f, _, err := d.open(path, flags, mode, false)
	return f, err
}

// OpenStat opens like Open and reports the data file's attributes under
// the logical name, taken from the data server's own open reply where
// it gives one (vfs.OpenStater) — the adapter's post-open fstat stops
// being a round trip.
func (d *Dist) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	return d.open(path, flags, mode, true)
}

func (d *Dist) open(path string, flags int, mode uint32, stat bool) (vfs.File, vfs.FileInfo, error) {
	if flags&vfs.O_CREAT != 0 {
		return d.create(path, flags, mode, stat)
	}
	stub, err := readStub(d.meta, path)
	if err != nil {
		return nil, vfs.FileInfo{}, err
	}
	return d.openData(stub, flags, mode, path, stat)
}

// openOn opens path on fs; with stat set the attributes come along.
func openOn(fs vfs.FileSystem, path string, flags int, mode uint32, stat bool) (vfs.File, vfs.FileInfo, error) {
	if stat {
		return vfs.OpenStat(fs, path, flags, mode)
	}
	f, err := fs.Open(path, flags, mode)
	return f, vfs.FileInfo{}, err
}

func (d *Dist) openData(stub Stub, flags int, mode uint32, name string, stat bool) (vfs.File, vfs.FileInfo, error) {
	srv := d.server(stub.Server)
	if srv == nil {
		// The server left the abstraction: data unreachable, but only
		// for this file (failure coherence).
		return nil, vfs.FileInfo{}, vfs.EIO
	}
	return dataFile(srv, stub.Path, flags&^(vfs.O_CREAT|vfs.O_EXCL), mode, name, stat)
}

// dataFile opens a data file and presents it under its logical name.
func dataFile(srv *DataServer, dataPath string, flags int, mode uint32, name string, stat bool) (vfs.File, vfs.FileInfo, error) {
	f, fi, err := openOn(srv.FS, dataPath, flags, mode, stat)
	if err != nil {
		return nil, vfs.FileInfo{}, err
	}
	fi.Name = pathutil.Base(name)
	return &distFile{File: f, name: fi.Name}, fi, nil
}

func (d *Dist) create(path string, flags int, mode uint32, stat bool) (vfs.File, vfs.FileInfo, error) {
	// Step 1: choose a server and a unique data file name.
	srv := d.pickServer()
	dataPath := pathutil.Join(srv.Dir, d.uniqueName())
	stub := Stub{Server: srv.Name, Path: dataPath}

	// Step 2: exclusively create the stub entry.
	sf, err := d.meta.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644)
	switch vfs.AsErrno(err) {
	case vfs.EOK:
		// Fresh stub; fill it in.
		body := encodeStub(stub)
		if werr := vfs.WriteAll(sf, body, 0); werr != nil {
			sf.Close()
			d.meta.Unlink(path)
			return nil, vfs.FileInfo{}, werr
		}
		if cerr := sf.Close(); cerr != nil {
			d.meta.Unlink(path)
			return nil, vfs.FileInfo{}, cerr
		}
	case vfs.EEXIST:
		if flags&vfs.O_EXCL != 0 {
			return nil, vfs.FileInfo{}, vfs.EEXIST
		}
		// The file already exists: open its data, honoring O_TRUNC.
		existing, rerr := readStub(d.meta, path)
		if rerr != nil {
			return nil, vfs.FileInfo{}, rerr
		}
		return d.openData(existing, flags, mode, path, stat)
	default:
		return nil, vfs.FileInfo{}, err
	}

	// Step 3: exclusively create the data file. On failure, undo the
	// stub so no dangling entry survives a *reported* failure (a crash
	// can still leave one — which is the safe orphan direction).
	f, fi, err := dataFile(srv, dataPath, flags|vfs.O_CREAT|vfs.O_EXCL, mode, path, stat)
	if err != nil {
		d.meta.Unlink(path)
	}
	return f, fi, err
}

// Stat resolves the stub and reports the data file's size and times
// under the logical name. This is the double hop that gives DSFS twice
// the metadata latency of CFS in Figure 4.
func (d *Dist) Stat(path string) (vfs.FileInfo, error) {
	stub, err := readStub(d.meta, path)
	if vfs.AsErrno(err) == vfs.EISDIR {
		return d.meta.Stat(path)
	}
	if err != nil {
		return vfs.FileInfo{}, err
	}
	srv := d.server(stub.Server)
	if srv == nil {
		return vfs.FileInfo{}, vfs.EIO
	}
	dfi, err := srv.FS.Stat(stub.Path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	dfi.Name = pathutil.Base(path)
	return dfi, nil
}

// Unlink removes a distributed file: data first, then stub (§5), so a
// crash mid-way leaves a dangling stub rather than orphaned data. A
// stub whose data is already gone — dangling — is deletable.
func (d *Dist) Unlink(path string) error {
	stub, err := readStub(d.meta, path)
	if err != nil {
		return err
	}
	if srv := d.server(stub.Server); srv != nil {
		if err := srv.FS.Unlink(stub.Path); err != nil && vfs.AsErrno(err) != vfs.ENOENT {
			return err
		}
	}
	return d.meta.Unlink(path)
}

// Rename moves the stub (or directory) without touching the data of
// the file being renamed (§5: name-only operations never contact a
// file server). One exception demands data work: renaming *onto* an
// existing file atomically replaces its stub, so that file's data must
// be released afterwards or it would be orphaned forever.
func (d *Dist) Rename(oldPath, newPath string) error {
	victim, verr := readStub(d.meta, newPath)
	if err := d.meta.Rename(oldPath, newPath); err != nil {
		return err
	}
	if verr == nil {
		if srv := d.server(victim.Server); srv != nil {
			// Best effort: failure here orphans data, which GEMS-style
			// auditing can reclaim; the rename itself already happened.
			_ = srv.FS.Unlink(victim.Path)
		}
	}
	return nil
}

// Mkdir is a name-only operation on the metadata tree.
func (d *Dist) Mkdir(path string, mode uint32) error {
	return d.meta.Mkdir(path, mode)
}

// Rmdir is a name-only operation on the metadata tree.
func (d *Dist) Rmdir(path string) error {
	return d.meta.Rmdir(path)
}

// ReadDir lists the metadata tree; it never contacts data servers, so
// the namespace stays navigable even when servers are down.
func (d *Dist) ReadDir(path string) ([]vfs.DirEntry, error) {
	return d.meta.ReadDir(path)
}

// Truncate resolves the stub and truncates the data file.
func (d *Dist) Truncate(path string, size int64) error {
	stub, err := readStub(d.meta, path)
	if err != nil {
		return err
	}
	srv := d.server(stub.Server)
	if srv == nil {
		return vfs.EIO
	}
	return srv.FS.Truncate(stub.Path, size)
}

// Chmod applies to the stub entry: permissions are metadata.
func (d *Dist) Chmod(path string, mode uint32) error {
	return d.meta.Chmod(path, mode)
}

// StatFS aggregates capacity over all data servers — the whole point
// of a DPFS is escaping the capacity of a single device (§5).
func (d *Dist) StatFS() (vfs.FSInfo, error) {
	var total vfs.FSInfo
	var ok bool
	for i := range d.servers {
		info, err := d.servers[i].FS.StatFS()
		if err != nil {
			continue // a down server contributes nothing
		}
		total.TotalBytes += info.TotalBytes
		total.FreeBytes += info.FreeBytes
		ok = true
	}
	if !ok {
		return vfs.FSInfo{}, vfs.EIO
	}
	return total, nil
}

// ReadStub exposes the stub behind a logical path (repair tools and
// tests).
func (d *Dist) ReadStub(path string) (Stub, error) {
	return readStub(d.meta, path)
}

// Reconnect re-establishes the connection of the metadata filesystem
// and of every data server that supports reconnection, so the §6
// recovery protocol works through a whole distributed filesystem, not
// just a single server mount.
func (d *Dist) Reconnect() error { return reconnectServers(d.meta, d.servers) }

// reconnectServers is Reconnect for a metadata tree plus data servers,
// the shape Dist and StripedFS share.
func reconnectServers(meta vfs.FileSystem, servers []DataServer) error {
	fss := []vfs.FileSystem{meta}
	for i := range servers {
		fss = append(fss, servers[i].FS)
	}
	return vfs.ReconnectAll(fss...)
}

var _ vfs.Reconnector = (*Dist)(nil)

// distFile presents a data file under its logical name.
type distFile struct {
	vfs.File
	name string
}

// Fstat rewrites the data file's name to the logical one.
func (f *distFile) Fstat() (vfs.FileInfo, error) {
	fi, err := f.File.Fstat()
	if err != nil {
		return fi, err
	}
	fi.Name = f.name
	return fi, nil
}

// NewDPFS builds a distributed *private* filesystem: the directory
// tree lives in a filesystem private to one user — typically a local
// directory — so the abstraction needs no shared metadata server but
// cannot be shared either (§5).
func NewDPFS(meta vfs.FileSystem, servers []DataServer, opts Options) (*Dist, error) {
	return New(meta, servers, opts)
}

// NewDSFS builds a distributed *shared* filesystem: the directory tree
// itself lives on a file server (metaServer), so multiple clients can
// mount the same namespace. metaDir scopes the tree to a directory on
// that server, which may simultaneously serve as a data server —
// "a single file server might be dedicated for use as a DSFS
// directory, or it might serve double duty" (§5).
func NewDSFS(metaServer vfs.FileSystem, metaDir string, servers []DataServer, opts Options) (*Dist, error) {
	if err := vfs.MkdirAll(metaServer, metaDir, 0o755); err != nil {
		return nil, err
	}
	meta, err := vfs.Subtree(metaServer, metaDir)
	if err != nil {
		return nil, err
	}
	return New(meta, servers, opts)
}

// OpenDSFS is NewDSFS over a tree that already exists: it creates
// nothing on any server, and a tree that is not there is ENOENT. A
// check or a read opens; only a write may start a tree, so a misspelt
// spec does not leave an empty one behind.
func OpenDSFS(metaServer vfs.FileSystem, metaDir string, servers []DataServer, opts Options) (*Dist, error) {
	fi, err := metaServer.Stat(metaDir)
	if err == nil && !fi.IsDir {
		err = vfs.ENOTDIR
	}
	if err != nil {
		return nil, fmt.Errorf("abstraction: dsfs tree %s: %w", metaDir, err)
	}
	meta, err := vfs.Subtree(metaServer, metaDir)
	if err != nil {
		return nil, err
	}
	return assemble(meta, servers, opts)
}
