package vfs

import (
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"

	"tss/internal/pathutil"
)

// LocalFS exports a directory of the host filesystem through the
// FileSystem interface, confining every operation beneath its root
// (the software chroot of §4). It is the resource that a Chirp server
// serves, and doubles as the private metadata store of a DPFS.
type LocalFS struct {
	root string
}

// NewLocalFS returns a LocalFS rooted at the host directory root, which
// must already exist.
func NewLocalFS(root string) (*LocalFS, error) {
	st, err := os.Stat(root)
	if err != nil {
		return nil, AsErrno(err)
	}
	if !st.IsDir() {
		return nil, ENOTDIR
	}
	return &LocalFS{root: root}, nil
}

// Root returns the host directory this filesystem is confined to.
func (l *LocalFS) Root() string { return l.root }

// HostPath maps a logical path to the confined host path.
func (l *LocalFS) HostPath(path string) (string, error) {
	hp, err := pathutil.Confine(l.root, path)
	if err != nil {
		return "", EINVAL
	}
	return hp, nil
}

func osFlags(flags int) int {
	of := 0
	switch flags & AccessModeMask {
	case O_RDONLY:
		of = os.O_RDONLY
	case O_WRONLY:
		of = os.O_WRONLY
	case O_RDWR:
		of = os.O_RDWR
	}
	if flags&O_CREAT != 0 {
		of |= os.O_CREATE
	}
	if flags&O_EXCL != 0 {
		of |= os.O_EXCL
	}
	if flags&O_TRUNC != 0 {
		of |= os.O_TRUNC
	}
	if flags&O_APPEND != 0 {
		of |= os.O_APPEND
	}
	if flags&O_SYNC != 0 {
		of |= os.O_SYNC
	}
	return of
}

func fileInfoOf(name string, st fs.FileInfo) FileInfo {
	fi := FileInfo{
		Name:  name,
		Size:  st.Size(),
		Mode:  uint32(st.Mode().Perm()),
		MTime: st.ModTime().Unix(),
		IsDir: st.IsDir(),
	}
	if sys, ok := st.Sys().(*syscall.Stat_t); ok {
		fi.Inode = sys.Ino
	}
	return fi
}

// Open opens or creates a file beneath the root.
func (l *LocalFS) Open(path string, flags int, mode uint32) (File, error) {
	hp, err := l.HostPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(hp, osFlags(flags), os.FileMode(mode))
	if err != nil {
		return nil, AsErrno(err)
	}
	st, err := f.Stat()
	if err == nil && st.IsDir() {
		f.Close()
		return nil, EISDIR
	}
	return &localFile{f: f, name: pathutil.Base(path), append: flags&O_APPEND != 0}, nil
}

// Stat returns metadata for the named file.
func (l *LocalFS) Stat(path string) (FileInfo, error) {
	hp, err := l.HostPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	st, err := os.Stat(hp)
	if err != nil {
		return FileInfo{}, AsErrno(err)
	}
	return fileInfoOf(pathutil.Base(path), st), nil
}

// Unlink removes a file. Removing a directory yields EISDIR.
func (l *LocalFS) Unlink(path string) error {
	hp, err := l.HostPath(path)
	if err != nil {
		return err
	}
	st, err := os.Lstat(hp)
	if err != nil {
		return AsErrno(err)
	}
	if st.IsDir() {
		return EISDIR
	}
	if err := os.Remove(hp); err != nil {
		return AsErrno(err)
	}
	return nil
}

// Rename atomically renames a file or directory within the filesystem.
func (l *LocalFS) Rename(oldPath, newPath string) error {
	ohp, err := l.HostPath(oldPath)
	if err != nil {
		return err
	}
	nhp, err := l.HostPath(newPath)
	if err != nil {
		return err
	}
	if err := os.Rename(ohp, nhp); err != nil {
		return AsErrno(err)
	}
	return nil
}

// Mkdir creates a directory.
func (l *LocalFS) Mkdir(path string, mode uint32) error {
	hp, err := l.HostPath(path)
	if err != nil {
		return err
	}
	if err := os.Mkdir(hp, os.FileMode(mode)); err != nil {
		return AsErrno(err)
	}
	return nil
}

// Rmdir removes an empty directory.
func (l *LocalFS) Rmdir(path string) error {
	hp, err := l.HostPath(path)
	if err != nil {
		return err
	}
	st, err := os.Lstat(hp)
	if err != nil {
		return AsErrno(err)
	}
	if !st.IsDir() {
		return ENOTDIR
	}
	if err := os.Remove(hp); err != nil {
		return AsErrno(err)
	}
	return nil
}

// ReadDir lists a directory.
func (l *LocalFS) ReadDir(path string) ([]DirEntry, error) {
	hp, err := l.HostPath(path)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(hp)
	if err != nil {
		return nil, AsErrno(err)
	}
	out := make([]DirEntry, 0, len(ents))
	for _, e := range ents {
		out = append(out, DirEntry{Name: e.Name(), IsDir: e.IsDir()})
	}
	return out, nil
}

// Truncate changes the length of the named file.
func (l *LocalFS) Truncate(path string, size int64) error {
	hp, err := l.HostPath(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(hp, size); err != nil {
		return AsErrno(err)
	}
	return nil
}

// Chmod changes permission bits of the named file.
func (l *LocalFS) Chmod(path string, mode uint32) error {
	hp, err := l.HostPath(path)
	if err != nil {
		return err
	}
	if err := os.Chmod(hp, os.FileMode(mode)); err != nil {
		return AsErrno(err)
	}
	return nil
}

// Checksum streams the named host file through the requested digest,
// never materializing it in memory (vfs.Checksummer). A directory
// yields EISDIR to match Open.
func (l *LocalFS) Checksum(path, algo string) (string, error) {
	h, err := NewHash(algo)
	if err != nil {
		return "", err
	}
	hp, err := l.HostPath(path)
	if err != nil {
		return "", err
	}
	f, err := os.Open(hp)
	if err != nil {
		return "", AsErrno(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", AsErrno(err)
	}
	if st.IsDir() {
		return "", EISDIR
	}
	// The size only picks the buffer (one byte more, so an empty file
	// still gets one); the file is read to its end. The wrapper hides
	// the file's own WriteTo, which would bring a buffer of its own.
	bp := GetWindow(st.Size() + 1)
	defer PutBuf(bp)
	if _, err := io.CopyBuffer(h, struct{ io.Reader }{f}, *bp); err != nil {
		return "", AsErrno(err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// StatFS reports host filesystem capacity for the volume holding root.
func (l *LocalFS) StatFS() (FSInfo, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(l.root, &st); err != nil {
		return FSInfo{}, AsErrno(err)
	}
	bs := int64(st.Bsize)
	return FSInfo{
		TotalBytes: int64(st.Blocks) * bs,
		FreeBytes:  int64(st.Bavail) * bs,
	}, nil
}

type localFile struct {
	f      *os.File
	name   string
	append bool
}

func (lf *localFile) Pread(p []byte, off int64) (int, error) {
	n, err := lf.f.ReadAt(p, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, AsErrno(err)
	}
	// A short read at end of file is not an error in the Chirp model:
	// n == 0 signals EOF.
	return n, nil
}

func (lf *localFile) Pwrite(p []byte, off int64) (int, error) {
	// pwrite on a file opened with O_APPEND appends regardless of the
	// offset (POSIX/Linux semantics); Go's WriteAt refuses it, so use
	// the sequential writer, which the kernel positions at EOF.
	if lf.append {
		n, err := lf.f.Write(p)
		if err != nil {
			return n, AsErrno(err)
		}
		return n, nil
	}
	n, err := lf.f.WriteAt(p, off)
	if err != nil {
		return n, AsErrno(err)
	}
	return n, nil
}

func (lf *localFile) Fstat() (FileInfo, error) {
	st, err := lf.f.Stat()
	if err != nil {
		return FileInfo{}, AsErrno(err)
	}
	return fileInfoOf(lf.name, st), nil
}

func (lf *localFile) Ftruncate(size int64) error {
	if err := lf.f.Truncate(size); err != nil {
		return AsErrno(err)
	}
	return nil
}

func (lf *localFile) Sync() error {
	if err := lf.f.Sync(); err != nil {
		return AsErrno(err)
	}
	return nil
}

// OSFile exposes the host file for the server's bulk-data fast path
// (vfs.OSFiler): positional I/O elsewhere in localFile never moves the
// descriptor's offset, so sequential streaming from offset zero is safe
// on a freshly opened file.
func (lf *localFile) OSFile() *os.File { return lf.f }

func (lf *localFile) Close() error {
	if err := lf.f.Close(); err != nil {
		return AsErrno(err)
	}
	return nil
}
