// Package abstraction implements the abstraction layer of the tactical
// storage system (§5 of the paper): structures that ordinary users
// build out of raw file servers, without privileges on any of them.
//
//   - CFS, the central filesystem: direct, untranslated access to one
//     server.
//   - DPFS, the distributed private filesystem: the directory tree
//     lives in a filesystem private to one user; file data is spread
//     over many servers behind small stub files.
//   - DSFS, the distributed shared filesystem: identical, except the
//     directory tree itself lives on a file server, so many clients
//     share one namespace. Because every layer speaks vfs.FileSystem,
//     DSFS is literally DPFS instantiated with a remote metadata
//     filesystem — the recursive abstraction at work.
//
// The distributed shared database (DSDB) builds on the same stub
// mechanism; it lives in package gems together with its replication
// machinery.
//
// Every abstraction is failure coherent: losing a data server makes
// only the files stored there unavailable, while the directory tree
// remains navigable and other files remain usable.
package abstraction

import "tss/internal/vfs"

// DataServer is one storage resource participating in a distributed
// abstraction.
type DataServer struct {
	// Name identifies the server in stub files; it must be stable
	// across reconnections (typically the advertised server name).
	Name string
	// FS is the connection to the server.
	FS vfs.FileSystem
	// Dir is the directory on the server under which this abstraction
	// stores its data files (a distinguishable directory per
	// abstraction, which is what makes manual recovery possible when
	// the metadata server is lost — §5).
	Dir string
}

// CFS is the central filesystem: a single file server accessed without
// translation. Consistency and synchronization are managed by the host
// kernel on the server, giving Unix-like semantics with grid security —
// "roughly analogous to NFS ... by dispensing with buffering and
// caching" (§5).
type CFS struct {
	vfs.FileSystem
	name string
}

// NewCFS wraps a server connection as a central filesystem.
func NewCFS(name string, fs vfs.FileSystem) *CFS {
	return &CFS{FileSystem: fs, name: name}
}

// Name returns the server name this CFS is bound to.
func (c *CFS) Name() string { return c.name }

// Capabilities forwards what the server connection offers
// (vfs.Capabler): CFS adds nothing and must hide nothing — embedding
// the interface alone would drop OpenStat, getfile, leases and the
// adapter's §6 reconnect.
func (c *CFS) Capabilities() vfs.Capability { return vfs.Capabilities(c.FileSystem) }
