package abstraction

import (
	"encoding/json"
	"fmt"
	"sync"

	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// StripedFS stripes each file's data across multiple servers in
// fixed-size blocks — the other §10 extension ("transparently stripe
// ... data") — so a single client reading one large file can draw on
// the aggregate bandwidth of every server at once. The directory tree
// lives on a metadata filesystem (local or on a Chirp server, exactly
// as with DPFS/DSFS); where the tree has a file, it has a descriptor
// naming the stripe layout.
//
// Layout: global stripe j lives on server j mod W at local offset
// (j div W) * S, where W is the stripe width and S the stripe size.
// Reads and writes fan out to the servers concurrently, one goroutine
// per server.
type StripedFS struct {
	meta       vfs.FileSystem
	servers    []DataServer
	byName     map[string]*DataServer
	stripeSize int64
	clientID   string
	seq        int64
	mu         sync.Mutex
}

var _ vfs.FileSystem = (*StripedFS)(nil)

// StripeOptions configures a striped filesystem.
type StripeOptions struct {
	// StripeSize is the block size in bytes (default 64 KiB).
	StripeSize int64
	// ClientID distinguishes this client in data file names.
	ClientID string
}

// stripeDesc is the JSON descriptor stored in place of each file.
type stripeDesc struct {
	Magic      string   `json:"magic"` // "tss-stripe"
	StripeSize int64    `json:"stripe_size"`
	Servers    []string `json:"servers"` // width = len(Servers), in stripe order
	Base       string   `json:"base"`    // data file path on every server
}

const stripeMagic = "tss-stripe"

// NewStriped assembles a striped filesystem.
func NewStriped(meta vfs.FileSystem, servers []DataServer, opts StripeOptions) (*StripedFS, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("abstraction: striping needs at least one server")
	}
	if opts.StripeSize <= 0 {
		opts.StripeSize = 64 << 10
	}
	if opts.ClientID == "" {
		opts.ClientID = "client"
	}
	s := &StripedFS{
		meta:       meta,
		servers:    servers,
		byName:     make(map[string]*DataServer, len(servers)),
		stripeSize: opts.StripeSize,
		clientID:   opts.ClientID,
	}
	for i := range servers {
		sv := &s.servers[i]
		if sv.Dir == "" {
			sv.Dir = "/"
		}
		n, err := pathutil.Norm(sv.Dir)
		if err != nil {
			return nil, vfs.EINVAL
		}
		sv.Dir = n
		if _, dup := s.byName[sv.Name]; dup {
			return nil, fmt.Errorf("abstraction: duplicate server name %q", sv.Name)
		}
		s.byName[sv.Name] = sv
		if err := vfs.MkdirAll(sv.FS, sv.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseStripeDesc decodes raw bytes as a stripe descriptor, reporting
// ok only when the magic matches and the geometry is sane. Fsck uses
// it to recognize stripe files among stub files that share a metadata
// tree.
func parseStripeDesc(data []byte) (*stripeDesc, bool) {
	var d stripeDesc
	if err := json.Unmarshal(data, &d); err != nil || d.Magic != stripeMagic {
		return nil, false
	}
	if d.StripeSize <= 0 || len(d.Servers) == 0 || d.Base == "" {
		return nil, false
	}
	return &d, true
}

func (s *StripedFS) readDesc(path string) (*stripeDesc, error) {
	//lint:ignore copyapi a stripe descriptor is tiny one-round-trip metadata, not a transfer
	data, err := vfs.GetWholeFile(s.meta, path)
	if err != nil {
		return nil, err
	}
	d, ok := parseStripeDesc(data)
	if !ok {
		return nil, vfs.EIO
	}
	return d, nil
}

// Open opens or creates a striped file.
func (s *StripedFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	if flags&vfs.O_CREAT != 0 {
		return s.create(path, flags, mode)
	}
	d, err := s.readDesc(path)
	if err != nil {
		return nil, err
	}
	return s.openDesc(d, flags, mode, path)
}

func (s *StripedFS) openDesc(d *stripeDesc, flags int, mode uint32, name string) (vfs.File, error) {
	files := make([]vfs.File, len(d.Servers))
	dataFlags := flags &^ (vfs.O_CREAT | vfs.O_EXCL | vfs.O_TRUNC)
	// Truncating the logical file truncates every member.
	if flags&vfs.O_TRUNC != 0 {
		dataFlags |= vfs.O_TRUNC
	}
	for i, srvName := range d.Servers {
		srv := s.byName[srvName]
		if srv == nil {
			for _, f := range files {
				if f != nil {
					f.Close()
				}
			}
			return nil, vfs.EIO
		}
		f, err := srv.FS.Open(pathutil.Join(srv.Dir, d.Base), dataFlags, mode)
		if err != nil {
			for _, g := range files {
				if g != nil {
					g.Close()
				}
			}
			return nil, err
		}
		files[i] = f
	}
	return &stripedFile{
		files:      files,
		stripeSize: d.StripeSize,
		name:       pathutil.Base(name),
	}, nil
}

func (s *StripedFS) create(path string, flags int, mode uint32) (vfs.File, error) {
	s.mu.Lock()
	s.seq++
	base := fmt.Sprintf("%s.stripe.%d", s.clientID, s.seq)
	s.mu.Unlock()

	names := make([]string, len(s.servers))
	for i := range s.servers {
		names[i] = s.servers[i].Name
	}
	desc := &stripeDesc{Magic: stripeMagic, StripeSize: s.stripeSize, Servers: names, Base: base}
	body, err := json.Marshal(desc)
	if err != nil {
		return nil, err
	}
	// Same crash-safe ordering as the DSFS: descriptor first
	// (exclusively), then the data files.
	df, err := s.meta.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, 0o644)
	switch vfs.AsErrno(err) {
	case vfs.EOK:
		if werr := vfs.WriteAll(df, body, 0); werr != nil {
			df.Close()
			s.meta.Unlink(path)
			return nil, werr
		}
		if cerr := df.Close(); cerr != nil {
			s.meta.Unlink(path)
			return nil, cerr
		}
	case vfs.EEXIST:
		if flags&vfs.O_EXCL != 0 {
			return nil, vfs.EEXIST
		}
		existing, rerr := s.readDesc(path)
		if rerr != nil {
			return nil, rerr
		}
		return s.openDesc(existing, flags, mode, path)
	default:
		return nil, err
	}
	files := make([]vfs.File, len(s.servers))
	for i := range s.servers {
		srv := &s.servers[i]
		f, err := srv.FS.Open(pathutil.Join(srv.Dir, base), flags|vfs.O_CREAT|vfs.O_EXCL, mode)
		if err != nil {
			for _, g := range files {
				if g != nil {
					g.Close()
				}
			}
			for j := 0; j < i; j++ {
				s.servers[j].FS.Unlink(pathutil.Join(s.servers[j].Dir, base))
			}
			s.meta.Unlink(path)
			return nil, err
		}
		files[i] = f
	}
	return &stripedFile{files: files, stripeSize: s.stripeSize, name: pathutil.Base(path)}, nil
}

// Stat reconstructs the logical size from the member file sizes.
func (s *StripedFS) Stat(path string) (vfs.FileInfo, error) {
	d, err := s.readDesc(path)
	if vfs.AsErrno(err) == vfs.EISDIR {
		return s.meta.Stat(path)
	}
	if err != nil {
		// A descriptor that fails to parse may be a directory on
		// metadata stores that only report EISDIR at open time.
		if fi, serr := s.meta.Stat(path); serr == nil && fi.IsDir {
			return fi, nil
		}
		return vfs.FileInfo{}, err
	}
	var size int64
	var newest int64
	for k, srvName := range d.Servers {
		srv := s.byName[srvName]
		if srv == nil {
			return vfs.FileInfo{}, vfs.EIO
		}
		fi, err := srv.FS.Stat(pathutil.Join(srv.Dir, d.Base))
		if err != nil {
			return vfs.FileInfo{}, err
		}
		if end := logicalExtent(fi.Size, int64(k), int64(len(d.Servers)), d.StripeSize); end > size {
			size = end
		}
		if fi.MTime > newest {
			newest = fi.MTime
		}
	}
	return vfs.FileInfo{Name: pathutil.Base(path), Size: size, Mode: 0o644, MTime: newest}, nil
}

// logicalExtent maps member k's local length to the furthest logical
// byte it covers, given width w and stripe size ss.
func logicalExtent(local, k, w, ss int64) int64 {
	if local == 0 {
		return 0
	}
	full := local / ss
	rem := local % ss
	if rem > 0 {
		// The partial stripe is global stripe full*w+k.
		return (full*w+k)*ss + rem
	}
	// The last full stripe is global stripe (full-1)*w+k.
	return ((full-1)*w+k)*ss + ss
}

// Unlink removes the data files (each server) then the descriptor.
func (s *StripedFS) Unlink(path string) error {
	d, err := s.readDesc(path)
	if err != nil {
		return err
	}
	for _, srvName := range d.Servers {
		if srv := s.byName[srvName]; srv != nil {
			err := srv.FS.Unlink(pathutil.Join(srv.Dir, d.Base))
			if err != nil && vfs.AsErrno(err) != vfs.ENOENT {
				return err
			}
		}
	}
	return s.meta.Unlink(path)
}

// Rename is metadata-only.
func (s *StripedFS) Rename(oldPath, newPath string) error {
	return s.meta.Rename(oldPath, newPath)
}

// Mkdir is metadata-only.
func (s *StripedFS) Mkdir(path string, mode uint32) error { return s.meta.Mkdir(path, mode) }

// Rmdir is metadata-only.
func (s *StripedFS) Rmdir(path string) error { return s.meta.Rmdir(path) }

// ReadDir is metadata-only.
func (s *StripedFS) ReadDir(path string) ([]vfs.DirEntry, error) { return s.meta.ReadDir(path) }

// Truncate truncates every member to its share of the logical size.
func (s *StripedFS) Truncate(path string, size int64) error {
	d, err := s.readDesc(path)
	if err != nil {
		return err
	}
	w := int64(len(d.Servers))
	for k, srvName := range d.Servers {
		srv := s.byName[srvName]
		if srv == nil {
			return vfs.EIO
		}
		local := localLength(size, int64(k), w, d.StripeSize)
		if err := srv.FS.Truncate(pathutil.Join(srv.Dir, d.Base), local); err != nil {
			return err
		}
	}
	return nil
}

// localLength maps a logical size to member k's local length.
func localLength(size, k, w, ss int64) int64 {
	if size <= 0 {
		return 0
	}
	fullGlobal := size / ss // complete global stripes
	rem := size % ss
	// Member k holds global stripes k, k+w, k+2w, ...
	count := (fullGlobal - k + w - 1) / w // complete stripes on member k
	if count < 0 {
		count = 0
	}
	local := count * ss
	if rem > 0 && fullGlobal%w == k {
		local += rem
	}
	return local
}

// Chmod is metadata-only.
func (s *StripedFS) Chmod(path string, mode uint32) error { return s.meta.Chmod(path, mode) }

// StatFS aggregates capacity over the stripe members.
func (s *StripedFS) StatFS() (vfs.FSInfo, error) {
	var total vfs.FSInfo
	ok := false
	for i := range s.servers {
		info, err := s.servers[i].FS.StatFS()
		if err != nil {
			continue
		}
		total.TotalBytes += info.TotalBytes
		total.FreeBytes += info.FreeBytes
		ok = true
	}
	if !ok {
		return total, vfs.EIO
	}
	return total, nil
}

// Reconnect re-establishes the metadata and member connections. The
// stripe does not retry: like Dist and the mirror it forwards the
// capability, and whoever mounts it (the adapter) drives recovery.
func (s *StripedFS) Reconnect() error { return reconnectServers(s.meta, s.servers) }

var _ vfs.Reconnector = (*StripedFS)(nil)

// stripedFile is an open striped file. I/O fans out to the member
// files concurrently, one goroutine per member.
type stripedFile struct {
	files      []vfs.File // index = stripe order
	stripeSize int64
	name       string
}

// segment is one contiguous run within a member file.
type segment struct {
	member   int
	local    int64 // offset in the member file
	bufStart int64 // offset in the caller's buffer
	length   int64
}

// split decomposes a logical [off, off+n) range into member segments.
func (sf *stripedFile) split(off, n int64) []segment {
	w := int64(len(sf.files))
	ss := sf.stripeSize
	var segs []segment
	for n > 0 {
		stripe := off / ss
		intra := off % ss
		length := ss - intra
		if length > n {
			length = n
		}
		segs = append(segs, segment{
			member:   int(stripe % w),
			local:    (stripe/w)*ss + intra,
			bufStart: -1, // filled by caller
			length:   length,
		})
		off += length
		n -= length
	}
	return segs
}

// runSegs executes op for every segment, grouped by member and run
// concurrently across members.
func (sf *stripedFile) runSegs(segs []segment, op func(member int, seg segment) error) error {
	byMember := make([][]segment, len(sf.files))
	for _, seg := range segs {
		byMember[seg.member] = append(byMember[seg.member], seg)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sf.files))
	for m, list := range byMember {
		if len(list) == 0 {
			continue
		}
		wg.Add(1)
		go func(m int, list []segment) {
			defer wg.Done()
			for _, seg := range list {
				if err := op(m, seg); err != nil {
					errs[m] = err
					return
				}
			}
		}(m, list)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (sf *stripedFile) size() (int64, error) {
	w := int64(len(sf.files))
	var size int64
	for k, f := range sf.files {
		fi, err := f.Fstat()
		if err != nil {
			return 0, err
		}
		if end := logicalExtent(fi.Size, int64(k), w, sf.stripeSize); end > size {
			size = end
		}
	}
	return size, nil
}

func (sf *stripedFile) Pread(p []byte, off int64) (int, error) {
	size, err := sf.size()
	if err != nil {
		return 0, err
	}
	if off >= size {
		return 0, nil
	}
	n := int64(len(p))
	if off+n > size {
		n = size - off
	}
	segs := sf.split(off, n)
	var bufPos int64
	for i := range segs {
		segs[i].bufStart = bufPos
		bufPos += segs[i].length
	}
	err = sf.runSegs(segs, func(m int, seg segment) error {
		return vfs.ReadFull(sf.files[m], p[seg.bufStart:seg.bufStart+seg.length], seg.local)
	})
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

func (sf *stripedFile) Pwrite(p []byte, off int64) (int, error) {
	segs := sf.split(off, int64(len(p)))
	var bufPos int64
	for i := range segs {
		segs[i].bufStart = bufPos
		bufPos += segs[i].length
	}
	err := sf.runSegs(segs, func(m int, seg segment) error {
		return vfs.WriteAll(sf.files[m], p[seg.bufStart:seg.bufStart+seg.length], seg.local)
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (sf *stripedFile) Fstat() (vfs.FileInfo, error) {
	size, err := sf.size()
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return vfs.FileInfo{Name: sf.name, Size: size, Mode: 0o644}, nil
}

func (sf *stripedFile) Ftruncate(size int64) error {
	w := int64(len(sf.files))
	for k, f := range sf.files {
		local := localLength(size, int64(k), w, sf.stripeSize)
		if err := f.Ftruncate(local); err != nil {
			return err
		}
	}
	return nil
}

func (sf *stripedFile) Sync() error {
	for _, f := range sf.files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (sf *stripedFile) Close() error {
	var first error
	for _, f := range sf.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
