// Package vfs defines the Unix-like filesystem interface that every
// layer of the tactical storage system exports and consumes.
//
// This single interface is the paper's "recursive storage abstraction"
// (§3) made literal: the local filesystem under a Chirp server, the
// Chirp client that talks to it, every abstraction built from multiple
// servers (CFS, DPFS, DSFS), and the adapter that applications use all
// implement FileSystem. Because the interface recurs at every layer,
// any abstraction can be stacked on any other.
package vfs

import (
	"bytes"
	"io"
	"os"
	"time"
)

// Open flags, defined independently of the host platform because they
// travel over the wire. The access mode occupies the low two bits.
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2

	O_CREAT  = 0x40
	O_EXCL   = 0x80
	O_TRUNC  = 0x200
	O_APPEND = 0x400
	O_SYNC   = 0x1000

	// AccessModeMask extracts the access mode from a flag word.
	AccessModeMask = 0x3
)

// FileInfo describes a file or directory. It is the portable subset of
// a Unix stat structure that the Chirp protocol carries.
type FileInfo struct {
	Name  string // final path component
	Size  int64  // length in bytes
	Mode  uint32 // permission bits (no type bits)
	MTime int64  // modification time, Unix seconds
	Inode uint64 // identity within one server; used for ESTALE checks
	IsDir bool
}

// ModTime returns the modification time as a time.Time.
func (fi FileInfo) ModTime() time.Time { return time.Unix(fi.MTime, 0) }

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// FSInfo describes the capacity of a filesystem, as reported by statfs
// and published to catalogs.
type FSInfo struct {
	TotalBytes int64
	FreeBytes  int64
}

// File is an open file. I/O is positional (pread/pwrite with explicit
// offsets), matching the Chirp protocol: the client, not the server,
// owns the notion of a current offset.
type File interface {
	// Pread reads up to len(p) bytes at offset off. It returns the
	// number of bytes read; n == 0 with nil error means end of file.
	Pread(p []byte, off int64) (n int, err error)
	// Pwrite writes len(p) bytes at offset off.
	Pwrite(p []byte, off int64) (n int, err error)
	// Fstat returns metadata for the open file.
	Fstat() (FileInfo, error)
	// Ftruncate changes the file length.
	Ftruncate(size int64) error
	// Sync flushes written data to stable storage.
	Sync() error
	// Close releases the descriptor.
	Close() error
}

// OSFiler is the optional escape hatch from a File to the host
// *os.File backing it. The Chirp server probes it on the bulk-data
// path: when both the transport is a raw TCP connection and the file
// is host-backed, getfile/putfile stream with io.Copy directly between
// the two, letting the runtime use sendfile/splice instead of chunking
// through protocol buffers. Wrappers that intercept I/O (fault
// injectors, instrumentation) simply do not implement it and keep the
// buffered path.
type OSFiler interface {
	OSFile() *os.File
}

// FileSystem is the recursive abstraction interface. All paths are
// absolute, slash-separated, and interpreted within the filesystem's
// own namespace.
type FileSystem interface {
	Open(path string, flags int, mode uint32) (File, error)
	Stat(path string) (FileInfo, error)
	Unlink(path string) error
	Rename(oldPath, newPath string) error
	Mkdir(path string, mode uint32) error
	Rmdir(path string) error
	ReadDir(path string) ([]DirEntry, error)
	Truncate(path string, size int64) error
	Chmod(path string, mode uint32) error
	StatFS() (FSInfo, error)
}

// Closer is implemented by filesystems that hold external resources
// (network connections); callers should close them when done.
type Closer interface {
	Close() error
}

// Reconnector is implemented by network-backed filesystems that can
// re-establish a lost connection. The adapter uses it to drive the
// recovery protocol of §6.
type Reconnector interface {
	Reconnect() error
}

// OpenStater is the optional open fast path: open and stat in one
// round trip, as the Chirp open response carries a stat line. The
// adapter uses it to record the inode for ESTALE detection without an
// extra RPC.
type OpenStater interface {
	OpenStat(path string, flags int, mode uint32) (File, FileInfo, error)
}

// FileGetter is the optional whole-file fetch fast path, matching the
// Chirp getfile RPC: one round trip regardless of size. Layers that
// read small whole files (DSFS stub resolution) use it when available,
// which is what keeps DSFS metadata operations at twice — not many
// times — the latency of CFS (Figure 4).
type FileGetter interface {
	GetFile(path string, w io.Writer) (int64, error)
}

// FilePutter is the optional whole-file store fast path, symmetric
// with FileGetter and matching the Chirp putfile RPC: the file is
// created (or replaced) and written in one round trip regardless of
// size. size is the exact number of bytes that will be read from r.
type FilePutter interface {
	PutFile(path string, mode uint32, size int64, r io.Reader) error
}

// PartGetter is the optional offset-addressed bulk read capability,
// matching the Chirp getpart RPC: stream up to length bytes at offset
// off of the named file into w, in one round trip. Parts are addressed
// by path, not descriptor, so concurrent part reads can travel on
// different pooled connections; the multipart engine (Copy) fans chunk
// reads across them. With a non-empty algo the transfer carries a
// digest trailer the receiving side verifies; GetPart returns the
// bytes written and that chunk digest (lowercase hex, "" when algo is
// empty).
type PartGetter interface {
	GetPart(path string, off, length int64, algo string, w io.Writer) (int64, string, error)
}

// PartPutter is the optional offset-addressed bulk write capability,
// the put side of the multipart protocol (Chirp putbegin / putpart /
// putcomplete). PutBegin creates the destination at its final path and
// full size; PutPart stores length bytes from r at offset off (with a
// non-empty algo the chunk carries a digest trailer the receiver
// verifies, answering an integrity error without touching other
// chunks, so a failed chunk retries independently); PutComplete checks
// the assembled file — its size, and with a non-empty algo its whole-
// file digest against sum — and removes it on mismatch, so a torn
// multipart transfer never survives at rest.
type PartPutter interface {
	PutBegin(path string, mode uint32, size int64) error
	PutPart(path string, off, length int64, algo string, r io.Reader) (string, error)
	PutComplete(path string, size int64, algo, sum string) error
}

// Lease is a server-granted read lease on one path: a promise that the
// holder may serve cached data for the path without revalidation until
// TTL elapses or the server observes a conflicting write. Version is
// the server's change counter for the path at grant time; a renewal
// that returns the same version proves the cached data is still
// current, and a changed version tells the holder to drop it.
type Lease struct {
	// ID names the lease for LeaseBreak; unique per server.
	ID int64
	// Version is the path's change counter at grant time.
	Version int64
	// TTL bounds how long the holder may trust the lease.
	TTL time.Duration
}

// Leaser is the optional read-lease capability, matching the Chirp
// lease/leasebreak RPCs. Lease grants a read lease on path; LeaseBreak
// releases a previously granted lease early (the holder is done with
// it). The caching tier (cache.FS) uses renewals as cheap
// revalidation: one small RPC covers every cached attribute, dirent,
// and page of the path.
type Leaser interface {
	Lease(path string) (Lease, error)
	LeaseBreak(id int64) error
}

// Capability collects the optional fast paths and lifecycle hooks a
// filesystem offers beyond the core FileSystem interface. Each field is
// nil when the capability is unavailable. Callers obtain one through
// Capabilities rather than by ad-hoc type assertion, so that layered
// filesystems can forward the capabilities of the stack they wrap.
type Capability struct {
	// OpenStater opens and stats in one round trip.
	OpenStater OpenStater
	// FileGetter fetches a whole file in one round trip.
	FileGetter FileGetter
	// FilePutter stores a whole file in one round trip.
	FilePutter FilePutter
	// PartGetter reads offset-addressed file parts for multipart
	// transfers.
	PartGetter PartGetter
	// PartPutter writes offset-addressed file parts with begin/complete
	// framing.
	PartPutter PartPutter
	// Checksummer digests a whole file where the data lives.
	Checksummer Checksummer
	// Leaser grants and releases read leases for client caching.
	Leaser Leaser
	// Reconnector re-establishes a lost transport connection.
	Reconnector Reconnector
	// Closer releases external resources held by the filesystem.
	Closer Closer
}

// Capabler is implemented by layered filesystems — instrumentation,
// subtree views, fault injectors — that wrap another filesystem and
// want to report (and decorate) the wrapped layer's capabilities
// instead of their own method set. A wrapper that merely embeds its
// inner filesystem would otherwise silently drop fast paths like
// getfile, doubling the round trips of every stub read (Figure 4).
type Capabler interface {
	Capabilities() Capability
}

// Capabilities probes fs for its optional capabilities. A filesystem
// that implements Capabler answers for itself (typically by forwarding
// its inner layer's capabilities); otherwise each capability is
// discovered by interface assertion. This is the single sanctioned way
// to reach an optional interface — the probe result is authoritative
// even when the concrete type would also satisfy the assertion.
func Capabilities(fs FileSystem) Capability {
	if c, ok := fs.(Capabler); ok {
		return c.Capabilities()
	}
	var caps Capability
	caps.OpenStater, _ = fs.(OpenStater)
	caps.FileGetter, _ = fs.(FileGetter)
	caps.FilePutter, _ = fs.(FilePutter)
	caps.PartGetter, _ = fs.(PartGetter)
	caps.PartPutter, _ = fs.(PartPutter)
	caps.Checksummer, _ = fs.(Checksummer)
	caps.Leaser, _ = fs.(Leaser)
	caps.Reconnector, _ = fs.(Reconnector)
	caps.Closer, _ = fs.(Closer)
	return caps
}

// ReconnectAll reconnects every one of fss that can be reconnected and
// returns the first failure. It is the body of Reconnect on a
// filesystem made of several others (a distributed tree and its
// members, a mirror's replicas, the two ends of a copy): the members
// that cannot reconnect, and nil ones, are skipped, and one that stays
// down does not stop the rest — failure coherence tolerates it.
func ReconnectAll(fss ...FileSystem) error {
	var first error
	for _, fs := range fss {
		if rc := Capabilities(fs).Reconnector; rc != nil {
			if err := rc.Reconnect(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// GetWholeFile reads an entire file, using the FileGetter fast path
// when fs provides it and open/pread/close otherwise.
//
// Deprecated: transfer call sites should go through Copy, the unified
// entrypoint that picks the best strategy (single-shot, streaming, or
// parallel multipart) from the capability probe. The tsslint copyapi
// check flags direct use outside package vfs; small metadata reads that
// genuinely want a byte slice may suppress it with a reason.
func GetWholeFile(fs FileSystem, path string) ([]byte, error) {
	if g := Capabilities(fs).FileGetter; g != nil {
		var buf bytes.Buffer
		if _, err := g.GetFile(path, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return ReadFile(fs, path)
}

// PutReader stores exactly size bytes from r as the named file, using
// the FilePutter one-round-trip fast path when fs provides it and
// open/pwrite/close otherwise.
//
// Deprecated: transfer call sites should go through Copy or PutBytes,
// the unified entrypoints that pick the best strategy (single-shot,
// streaming, or parallel multipart) from the capability probe. The
// tsslint copyapi check flags direct use outside package vfs.
func PutReader(fs FileSystem, path string, mode uint32, size int64, r io.Reader) error {
	if p := Capabilities(fs).FilePutter; p != nil {
		return p.PutFile(path, mode, size, r)
	}
	f, err := fs.Open(path, O_WRONLY|O_CREAT|O_TRUNC, mode)
	if err != nil {
		return err
	}
	buf := make([]byte, 256<<10)
	var off int64
	for off < size {
		want := int64(len(buf))
		if size-off < want {
			want = size - off
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			f.Close()
			return err
		}
		if err := WriteAll(f, buf[:want], off); err != nil {
			f.Close()
			return err
		}
		off += want
	}
	return f.Close()
}
