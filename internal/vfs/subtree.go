package vfs

import (
	"io"

	"tss/internal/pathutil"
)

// SubtreeFS exposes a subdirectory of another FileSystem as a complete
// filesystem of its own. It is the glue of recursive abstraction: a
// DSFS can keep its directory tree inside any directory of any Chirp
// server, and the adapter can mount any subtree anywhere.
type SubtreeFS struct {
	inner  FileSystem
	prefix string
}

var _ FileSystem = (*SubtreeFS)(nil)

// Subtree returns a view of inner rooted at prefix. The prefix is
// normalized; it is not required to exist yet.
func Subtree(inner FileSystem, prefix string) (*SubtreeFS, error) {
	n, err := pathutil.Norm(prefix)
	if err != nil {
		return nil, EINVAL
	}
	return &SubtreeFS{inner: inner, prefix: n}, nil
}

func (s *SubtreeFS) translate(path string) (string, error) {
	n, err := pathutil.Norm(path)
	if err != nil {
		return "", EINVAL
	}
	if s.prefix == "/" {
		return n, nil
	}
	if n == "/" {
		return s.prefix, nil
	}
	return s.prefix + n, nil
}

// Open opens a file within the subtree.
func (s *SubtreeFS) Open(path string, flags int, mode uint32) (File, error) {
	p, err := s.translate(path)
	if err != nil {
		return nil, err
	}
	return s.inner.Open(p, flags, mode)
}

// Stat stats a file within the subtree.
func (s *SubtreeFS) Stat(path string) (FileInfo, error) {
	p, err := s.translate(path)
	if err != nil {
		return FileInfo{}, err
	}
	return s.inner.Stat(p)
}

// Unlink removes a file within the subtree.
func (s *SubtreeFS) Unlink(path string) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	return s.inner.Unlink(p)
}

// Rename renames within the subtree.
func (s *SubtreeFS) Rename(oldPath, newPath string) error {
	op, err := s.translate(oldPath)
	if err != nil {
		return err
	}
	np, err := s.translate(newPath)
	if err != nil {
		return err
	}
	return s.inner.Rename(op, np)
}

// Mkdir creates a directory within the subtree.
func (s *SubtreeFS) Mkdir(path string, mode uint32) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	return s.inner.Mkdir(p, mode)
}

// Rmdir removes a directory within the subtree.
func (s *SubtreeFS) Rmdir(path string) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	return s.inner.Rmdir(p)
}

// ReadDir lists a directory within the subtree.
func (s *SubtreeFS) ReadDir(path string) ([]DirEntry, error) {
	p, err := s.translate(path)
	if err != nil {
		return nil, err
	}
	return s.inner.ReadDir(p)
}

// Truncate truncates a file within the subtree.
func (s *SubtreeFS) Truncate(path string, size int64) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	return s.inner.Truncate(p, size)
}

// Chmod changes modes within the subtree.
func (s *SubtreeFS) Chmod(path string, mode uint32) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	return s.inner.Chmod(p, mode)
}

// StatFS reports the capacity of the underlying filesystem.
func (s *SubtreeFS) StatFS() (FSInfo, error) { return s.inner.StatFS() }

// Reconnect forwards to the inner filesystem when it supports
// reconnection, so recovery works through subtree views.
func (s *SubtreeFS) Reconnect() error { return ReconnectAll(s.inner) }

// OpenStat forwards the open-with-stat fast path when the inner
// filesystem provides one.
func (s *SubtreeFS) OpenStat(path string, flags int, mode uint32) (File, FileInfo, error) {
	p, err := s.translate(path)
	if err != nil {
		return nil, FileInfo{}, err
	}
	return OpenStat(s.inner, p, flags, mode)
}

// GetFile forwards the whole-file fast path when the inner filesystem
// provides one; otherwise it falls back to open/pread/close.
func (s *SubtreeFS) GetFile(path string, w io.Writer) (int64, error) {
	p, err := s.translate(path)
	if err != nil {
		return 0, err
	}
	if g := Capabilities(s.inner).FileGetter; g != nil {
		return g.GetFile(p, w)
	}
	data, err := ReadFile(s.inner, p)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// PutFile forwards the whole-file store fast path when the inner
// filesystem provides one; otherwise it falls back to open/pwrite.
func (s *SubtreeFS) PutFile(path string, mode uint32, size int64, r io.Reader) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	return PutReader(s.inner, p, mode, size, r)
}

// GetPart forwards the offset-addressed bulk read fast path when the
// inner filesystem provides one.
func (s *SubtreeFS) GetPart(path string, off, length int64, algo string, w io.Writer) (int64, string, error) {
	p, err := s.translate(path)
	if err != nil {
		return 0, "", err
	}
	if g := Capabilities(s.inner).PartGetter; g != nil {
		return g.GetPart(p, off, length, algo, w)
	}
	return 0, "", EINVAL
}

// PutBegin forwards the multipart open when the inner filesystem
// provides one.
func (s *SubtreeFS) PutBegin(path string, mode uint32, size int64) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	if pp := Capabilities(s.inner).PartPutter; pp != nil {
		return pp.PutBegin(p, mode, size)
	}
	return EINVAL
}

// PutPart forwards one multipart chunk into the subtree.
func (s *SubtreeFS) PutPart(path string, off, length int64, algo string, r io.Reader) (string, error) {
	p, err := s.translate(path)
	if err != nil {
		return "", err
	}
	if pp := Capabilities(s.inner).PartPutter; pp != nil {
		return pp.PutPart(p, off, length, algo, r)
	}
	return "", EINVAL
}

// PutComplete forwards the multipart completion into the subtree.
func (s *SubtreeFS) PutComplete(path string, size int64, algo, sum string) error {
	p, err := s.translate(path)
	if err != nil {
		return err
	}
	if pp := Capabilities(s.inner).PartPutter; pp != nil {
		return pp.PutComplete(p, size, algo, sum)
	}
	return EINVAL
}

// Checksum forwards the content-digest fast path into the subtree,
// falling back to hashing the bytes read through the view.
func (s *SubtreeFS) Checksum(path, algo string) (string, error) {
	p, err := s.translate(path)
	if err != nil {
		return "", err
	}
	return ChecksumFile(s.inner, p, algo)
}

// Capabilities reports the capabilities of the inner filesystem,
// re-rooted at the subtree: a fast path exists through the view exactly
// when the wrapped layer has it. Closing is deliberately absent — the
// view does not own the inner filesystem's connection.
func (s *SubtreeFS) Capabilities() Capability {
	inner := Capabilities(s.inner)
	var c Capability
	if inner.OpenStater != nil {
		c.OpenStater = s
	}
	if inner.FileGetter != nil {
		c.FileGetter = s
	}
	if inner.FilePutter != nil {
		c.FilePutter = s
	}
	if inner.PartGetter != nil {
		c.PartGetter = s
	}
	if inner.PartPutter != nil {
		c.PartPutter = s
	}
	if inner.Checksummer != nil {
		c.Checksummer = s
	}
	if inner.Reconnector != nil {
		c.Reconnector = s
	}
	return c
}

// MkdirAll creates every missing directory along path on fs.
func MkdirAll(fs FileSystem, path string, mode uint32) error {
	n, err := pathutil.Norm(path)
	if err != nil {
		return EINVAL
	}
	if n == "/" {
		return nil
	}
	cur := ""
	for _, comp := range pathutil.Split(n) {
		cur += "/" + comp
		if err := fs.Mkdir(cur, mode); err != nil && AsErrno(err) != EEXIST {
			return err
		}
	}
	return nil
}
