package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"syscall"
	"time"

	"tss/internal/vfs"
)

// span is one call that crossed a layer boundary: which boundary, which
// operation, and when it entered and returned, in nanoseconds since the
// recorder's epoch. A span carries no parent: with one closed-loop
// client the parent is the enclosing span of the boundary above, which
// analyze resolves after the run.
type span struct {
	layer      uint8 // index into recorder.layers, 0 = app
	op         uint8 // index into opNames
	start, end int64
}

// recorder collects spans in memory; nothing is formatted or written
// until the timed phase is over. The buffer is an anonymous mapping, not
// Go heap: sp5_cfs runs on a live heap under 1 MiB and collects every
// few units, so tens of MiB of span storage on the heap would make the
// collector run several times less often and the traced run faster
// than the untraced one it is meant to explain.
type recorder struct {
	epoch  time.Time
	layers []string // boundary names, outermost first; layers[0] is "app"

	mu      sync.Mutex
	buf     []byte // spanBytes per span: layer, op, start, end
	n       int
	dropped int // spans that found the buffer full
}

const (
	spanBytes     = 18
	recorderBytes = 256 << 20 // 14.9M spans; pages are committed as they are touched
)

func newRecorder(layers []string) (*recorder, error) {
	buf, err := syscall.Mmap(-1, 0, recorderBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("span buffer: %w", err)
	}
	return &recorder{epoch: time.Now(), layers: layers, buf: buf}, nil
}

// release unmaps the buffer; the recorder must not be used afterwards.
func (r *recorder) release() error {
	buf := r.buf
	r.buf, r.n = nil, 0
	return syscall.Munmap(buf)
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add closes a span opened at start.
func (r *recorder) add(layer, op uint8, start int64) {
	end := r.now()
	r.mu.Lock()
	if off := r.n * spanBytes; off+spanBytes <= len(r.buf) {
		b := r.buf[off : off+spanBytes]
		b[0], b[1] = layer, op
		binary.LittleEndian.PutUint64(b[2:], uint64(start))
		binary.LittleEndian.PutUint64(b[10:], uint64(end))
		r.n++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// reset drops everything recorded so far (the warm-up's spans).
func (r *recorder) reset() {
	r.mu.Lock()
	r.n, r.dropped = 0, 0
	r.mu.Unlock()
}

// spans decodes what has been recorded, in completion order.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, r.n)
	for i := range out {
		b := r.buf[i*spanBytes:]
		out[i] = span{
			layer: b[0], op: b[1],
			start: int64(binary.LittleEndian.Uint64(b[2:])),
			end:   int64(binary.LittleEndian.Uint64(b[10:])),
		}
	}
	return out
}

// layerIndex returns the index of the named boundary, or -1.
func (r *recorder) layerIndex(name string) int {
	for i, l := range r.layers {
		if l == name {
			return i
		}
	}
	return -1
}

const (
	opUnit uint8 = iota // one application unit; recorded by the runner
	opOpen
	opStat
	opUnlink
	opRename
	opMkdir
	opRmdir
	opReadDir
	opTruncate
	opChmod
	opStatFS
	opPread
	opPwrite
	opFstat
	opFtruncate
	opSync
	opClose
	opOpenStat
	opGetFile
	opPutFile
	opGetPart
	opPutBegin
	opPutPart
	opPutComplete
	opChecksum
	opLease
	opLeaseBreak
	opReconnect
)

var opNames = [...]string{
	opUnit: "unit", opOpen: "open", opStat: "stat", opUnlink: "unlink",
	opRename: "rename", opMkdir: "mkdir", opRmdir: "rmdir", opReadDir: "readdir",
	opTruncate: "truncate", opChmod: "chmod", opStatFS: "statfs",
	opPread: "pread", opPwrite: "pwrite", opFstat: "fstat",
	opFtruncate: "ftruncate", opSync: "sync", opClose: "close",
	opOpenStat: "openstat", opGetFile: "getfile", opPutFile: "putfile",
	opGetPart: "getpart", opPutBegin: "putbegin", opPutPart: "putpart",
	opPutComplete: "putcomplete", opChecksum: "checksum",
	opLease: "lease", opLeaseBreak: "leasebreak", opReconnect: "reconnect",
}

// spanFS sits on one layer boundary and records a span for every call
// that crosses it. It is the benchmark's own wrapper — product code is
// not touched — and it forwards exactly the capabilities the wrapped
// layer reports (vfs.Capabler), each one timed, so the traced stack
// takes the same fast paths as the untraced one: a dropped Leaser would
// silently turn the cache TTL-only, a dropped FileGetter would double
// every DSFS stub read.
type spanFS struct {
	fs    vfs.FileSystem
	rec   *recorder
	layer uint8
}

var (
	_ vfs.FileSystem = (*spanFS)(nil)
	_ vfs.Capabler   = (*spanFS)(nil)
)

// wrap puts a span boundary named layer above fs. With a nil recorder
// (every end-to-end run) it returns fs itself.
func wrap(fs vfs.FileSystem, rec *recorder, layer string) vfs.FileSystem {
	if rec == nil {
		return fs
	}
	return &spanFS{fs: fs, rec: rec, layer: uint8(rec.layerIndex(layer))}
}

func (s *spanFS) file(f vfs.File) vfs.File { return &spanFile{s: s, f: f} }

func (s *spanFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	t := s.rec.now()
	f, err := s.fs.Open(path, flags, mode)
	s.rec.add(s.layer, opOpen, t)
	if err != nil {
		return nil, err
	}
	return s.file(f), nil
}

func (s *spanFS) Stat(path string) (vfs.FileInfo, error) {
	t := s.rec.now()
	fi, err := s.fs.Stat(path)
	s.rec.add(s.layer, opStat, t)
	return fi, err
}

func (s *spanFS) Unlink(path string) error {
	t := s.rec.now()
	err := s.fs.Unlink(path)
	s.rec.add(s.layer, opUnlink, t)
	return err
}

func (s *spanFS) Rename(oldPath, newPath string) error {
	t := s.rec.now()
	err := s.fs.Rename(oldPath, newPath)
	s.rec.add(s.layer, opRename, t)
	return err
}

func (s *spanFS) Mkdir(path string, mode uint32) error {
	t := s.rec.now()
	err := s.fs.Mkdir(path, mode)
	s.rec.add(s.layer, opMkdir, t)
	return err
}

func (s *spanFS) Rmdir(path string) error {
	t := s.rec.now()
	err := s.fs.Rmdir(path)
	s.rec.add(s.layer, opRmdir, t)
	return err
}

func (s *spanFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	t := s.rec.now()
	ents, err := s.fs.ReadDir(path)
	s.rec.add(s.layer, opReadDir, t)
	return ents, err
}

func (s *spanFS) Truncate(path string, size int64) error {
	t := s.rec.now()
	err := s.fs.Truncate(path, size)
	s.rec.add(s.layer, opTruncate, t)
	return err
}

func (s *spanFS) Chmod(path string, mode uint32) error {
	t := s.rec.now()
	err := s.fs.Chmod(path, mode)
	s.rec.add(s.layer, opChmod, t)
	return err
}

func (s *spanFS) StatFS() (vfs.FSInfo, error) {
	t := s.rec.now()
	info, err := s.fs.StatFS()
	s.rec.add(s.layer, opStatFS, t)
	return info, err
}

// Capabilities forwards the wrapped layer's capability set, wrapping
// each present capability so its calls are recorded. Absent
// capabilities stay absent. Closer is lifecycle, not traffic, and
// passes through untouched.
func (s *spanFS) Capabilities() vfs.Capability {
	inner := vfs.Capabilities(s.fs)
	c := vfs.Capability{Closer: inner.Closer}
	if inner.OpenStater != nil {
		c.OpenStater = &spanOpenStater{s, inner.OpenStater}
	}
	if inner.FileGetter != nil {
		c.FileGetter = &spanFileGetter{s, inner.FileGetter}
	}
	if inner.FilePutter != nil {
		c.FilePutter = &spanFilePutter{s, inner.FilePutter}
	}
	if inner.PartGetter != nil {
		c.PartGetter = &spanPartGetter{s, inner.PartGetter}
	}
	if inner.PartPutter != nil {
		c.PartPutter = &spanPartPutter{s, inner.PartPutter}
	}
	if inner.Checksummer != nil {
		c.Checksummer = &spanChecksummer{s, inner.Checksummer}
	}
	if inner.Leaser != nil {
		c.Leaser = &spanLeaser{s, inner.Leaser}
	}
	if inner.Reconnector != nil {
		c.Reconnector = &spanReconnector{s, inner.Reconnector}
	}
	return c
}

type spanOpenStater struct {
	s     *spanFS
	inner vfs.OpenStater
}

func (o *spanOpenStater) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	t := o.s.rec.now()
	f, fi, err := o.inner.OpenStat(path, flags, mode)
	o.s.rec.add(o.s.layer, opOpenStat, t)
	if err != nil {
		return nil, fi, err
	}
	return o.s.file(f), fi, nil
}

type spanFileGetter struct {
	s     *spanFS
	inner vfs.FileGetter
}

func (g *spanFileGetter) GetFile(path string, w io.Writer) (int64, error) {
	t := g.s.rec.now()
	n, err := g.inner.GetFile(path, w)
	g.s.rec.add(g.s.layer, opGetFile, t)
	return n, err
}

type spanFilePutter struct {
	s     *spanFS
	inner vfs.FilePutter
}

func (p *spanFilePutter) PutFile(path string, mode uint32, size int64, r io.Reader) error {
	t := p.s.rec.now()
	err := p.inner.PutFile(path, mode, size, r)
	p.s.rec.add(p.s.layer, opPutFile, t)
	return err
}

type spanPartGetter struct {
	s     *spanFS
	inner vfs.PartGetter
}

func (g *spanPartGetter) GetPart(path string, off, length int64, algo string, w io.Writer) (int64, string, error) {
	t := g.s.rec.now()
	n, sum, err := g.inner.GetPart(path, off, length, algo, w)
	g.s.rec.add(g.s.layer, opGetPart, t)
	return n, sum, err
}

type spanPartPutter struct {
	s     *spanFS
	inner vfs.PartPutter
}

func (p *spanPartPutter) PutBegin(path string, mode uint32, size int64) error {
	t := p.s.rec.now()
	err := p.inner.PutBegin(path, mode, size)
	p.s.rec.add(p.s.layer, opPutBegin, t)
	return err
}

func (p *spanPartPutter) PutPart(path string, off, length int64, algo string, r io.Reader) (string, error) {
	t := p.s.rec.now()
	sum, err := p.inner.PutPart(path, off, length, algo, r)
	p.s.rec.add(p.s.layer, opPutPart, t)
	return sum, err
}

func (p *spanPartPutter) PutComplete(path string, size int64, algo, sum string) error {
	t := p.s.rec.now()
	err := p.inner.PutComplete(path, size, algo, sum)
	p.s.rec.add(p.s.layer, opPutComplete, t)
	return err
}

type spanChecksummer struct {
	s     *spanFS
	inner vfs.Checksummer
}

func (c *spanChecksummer) Checksum(path, algo string) (string, error) {
	t := c.s.rec.now()
	sum, err := c.inner.Checksum(path, algo)
	c.s.rec.add(c.s.layer, opChecksum, t)
	return sum, err
}

type spanLeaser struct {
	s     *spanFS
	inner vfs.Leaser
}

func (l *spanLeaser) Lease(path string) (vfs.Lease, error) {
	t := l.s.rec.now()
	lease, err := l.inner.Lease(path)
	l.s.rec.add(l.s.layer, opLease, t)
	return lease, err
}

func (l *spanLeaser) LeaseBreak(id int64) error {
	t := l.s.rec.now()
	err := l.inner.LeaseBreak(id)
	l.s.rec.add(l.s.layer, opLeaseBreak, t)
	return err
}

type spanReconnector struct {
	s     *spanFS
	inner vfs.Reconnector
}

func (r *spanReconnector) Reconnect() error {
	t := r.s.rec.now()
	err := r.inner.Reconnect()
	r.s.rec.add(r.s.layer, opReconnect, t)
	return err
}

// spanFile records per-descriptor I/O on the boundary that opened it.
type spanFile struct {
	s *spanFS
	f vfs.File
}

func (f *spanFile) Pread(p []byte, off int64) (int, error) {
	t := f.s.rec.now()
	n, err := f.f.Pread(p, off)
	f.s.rec.add(f.s.layer, opPread, t)
	return n, err
}

func (f *spanFile) Pwrite(p []byte, off int64) (int, error) {
	t := f.s.rec.now()
	n, err := f.f.Pwrite(p, off)
	f.s.rec.add(f.s.layer, opPwrite, t)
	return n, err
}

func (f *spanFile) Fstat() (vfs.FileInfo, error) {
	t := f.s.rec.now()
	fi, err := f.f.Fstat()
	f.s.rec.add(f.s.layer, opFstat, t)
	return fi, err
}

func (f *spanFile) Ftruncate(size int64) error {
	t := f.s.rec.now()
	err := f.f.Ftruncate(size)
	f.s.rec.add(f.s.layer, opFtruncate, t)
	return err
}

func (f *spanFile) Sync() error {
	t := f.s.rec.now()
	err := f.f.Sync()
	f.s.rec.add(f.s.layer, opSync, t)
	return err
}

func (f *spanFile) Close() error {
	t := f.s.rec.now()
	err := f.f.Close()
	f.s.rec.add(f.s.layer, opClose, t)
	return err
}
