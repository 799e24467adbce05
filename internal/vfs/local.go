package vfs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"syscall"
	"unsafe"

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

// hostPathMax is the stack array a path verb builds its host path in;
// only a longer path costs an allocation.
const hostPathMax = 512

// The *at flags, which package syscall does not export.
const (
	atSymlinkNofollow = 0x100
	atRemovedir       = 0x200
)

// atFDCWD is AT_FDCWD (-100) as a system call argument: a host path is
// absolute, or relative to the working directory as the root given to
// NewLocalFS may be.
const atFDCWD = ^uintptr(99)

// hostPath appends path's NUL-terminated host path to buf, normally a
// caller's stack array; &hp[0] is the argument for a system call. It is
// the one place LocalFS confines a path (pathutil.AppendHost).
func (l *LocalFS) hostPath(buf []byte, path string) (hp []byte, err error) {
	hp, err = pathutil.AppendHost(buf, l.root, path)
	if err != nil {
		return nil, EINVAL
	}
	return hp, nil
}

// errnoErr is a system call's result as an error: nil for 0.
func errnoErr(e syscall.Errno) error {
	if e == 0 {
		return nil
	}
	return errnoOf(e)
}

// fstatat stats the NUL-terminated path p relative to dirfd into st,
// retrying EINTR as package os does.
func fstatat(dirfd uintptr, p *byte, st *syscall.Stat_t, flags uintptr) error {
	for {
		_, _, e := syscall.Syscall6(sysFstatat, dirfd, uintptr(unsafe.Pointer(p)), uintptr(unsafe.Pointer(st)), flags, 0, 0)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// openat opens the NUL-terminated host path p, close-on-exec.
func openat(p *byte, flags int, mode uint32) (int, error) {
	for {
		fd, _, e := syscall.Syscall6(syscall.SYS_OPENAT, atFDCWD, uintptr(unsafe.Pointer(p)), uintptr(flags|syscall.O_CLOEXEC), uintptr(mode), 0, 0)
		if e == 0 {
			return int(fd), nil
		}
		if e != syscall.EINTR {
			return -1, errnoOf(e)
		}
	}
}

// at makes the system call trap(AT_FDCWD, host path, arg): unlinkat,
// mkdirat, fchmodat.
func (l *LocalFS) at(trap uintptr, path string, arg uintptr) error {
	var buf [hostPathMax]byte
	hp, err := l.hostPath(buf[:0], path)
	if err != nil {
		return err
	}
	for {
		_, _, e := syscall.Syscall(trap, atFDCWD, uintptr(unsafe.Pointer(&hp[0])), arg)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

func osFlags(flags int) int {
	of := 0
	switch flags & AccessModeMask {
	case O_RDONLY:
		of = syscall.O_RDONLY
	case O_WRONLY:
		of = syscall.O_WRONLY
	case O_RDWR:
		of = syscall.O_RDWR
	}
	if flags&O_CREAT != 0 {
		of |= syscall.O_CREAT
	}
	if flags&O_EXCL != 0 {
		of |= syscall.O_EXCL
	}
	if flags&O_TRUNC != 0 {
		of |= syscall.O_TRUNC
	}
	if flags&O_APPEND != 0 {
		of |= syscall.O_APPEND
	}
	if flags&O_SYNC != 0 {
		of |= syscall.O_SYNC
	}
	return of
}

func isDir(st *syscall.Stat_t) bool { return st.Mode&syscall.S_IFMT == syscall.S_IFDIR }

// fileInfoOf is the FileInfo of a stat result: what os.FileInfo gives
// for the permission bits, the mtime in seconds and the type.
func fileInfoOf(name string, st *syscall.Stat_t) FileInfo {
	return FileInfo{
		Name:  name,
		Size:  st.Size,
		Mode:  st.Mode & 0o777,
		MTime: st.Mtim.Sec,
		Inode: st.Ino,
		IsDir: isDir(st),
	}
}

// open is OpenStat on the concrete type: openat, then one fstat that
// both refuses a directory and answers the caller. The descriptor is
// wrapped in an *os.File so the server's sendfile and splice paths
// still reach it (OSFiler).
func (l *LocalFS) open(path string, flags int, mode uint32) (*localFile, FileInfo, error) {
	var buf [hostPathMax]byte
	hp, err := l.hostPath(buf[:0], path)
	if err != nil {
		return nil, FileInfo{}, err
	}
	fd, err := openat(&hp[0], osFlags(flags), mode&0o777)
	if err != nil {
		return nil, FileInfo{}, err
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil || isDir(&st) {
		syscall.Close(fd)
		if err != nil {
			return nil, FileInfo{}, AsErrno(err)
		}
		return nil, FileInfo{}, EISDIR
	}
	name := pathutil.Base(path)
	lf := &localFile{f: os.NewFile(uintptr(fd), path), name: name, append: flags&O_APPEND != 0}
	return lf, fileInfoOf(name, &st), nil
}

// OpenStat opens or creates a file beneath the root and returns its
// metadata from the same descriptor (vfs.OpenStater).
func (l *LocalFS) OpenStat(path string, flags int, mode uint32) (File, FileInfo, error) {
	lf, fi, err := l.open(path, flags, mode)
	if err != nil {
		return nil, FileInfo{}, err
	}
	return lf, fi, nil
}

// Open opens or creates a file beneath the root.
func (l *LocalFS) Open(path string, flags int, mode uint32) (File, error) {
	f, _, err := l.OpenStat(path, flags, mode)
	return f, err
}

// StatSys fills st for the named file, following a final symlink as
// Stat does. st may live on the caller's stack: nothing is allocated.
func (l *LocalFS) StatSys(path string, st *syscall.Stat_t) error {
	var buf [hostPathMax]byte
	hp, err := l.hostPath(buf[:0], path)
	if err != nil {
		return err
	}
	return fstatat(atFDCWD, &hp[0], st, 0)
}

// Stat returns metadata for the named file.
func (l *LocalFS) Stat(path string) (FileInfo, error) {
	var st syscall.Stat_t
	if err := l.StatSys(path, &st); err != nil {
		return FileInfo{}, err
	}
	return fileInfoOf(pathutil.Base(path), &st), nil
}

// Unlink removes a file in one unlinkat: a directory yields EISDIR and
// is left in place, whatever it was a moment before.
func (l *LocalFS) Unlink(path string) error {
	return l.at(syscall.SYS_UNLINKAT, path, 0)
}

// Rmdir removes an empty directory in one unlinkat: a file yields
// ENOTDIR and is left in place.
func (l *LocalFS) Rmdir(path string) error {
	return l.at(syscall.SYS_UNLINKAT, path, atRemovedir)
}

// Mkdir creates a directory.
func (l *LocalFS) Mkdir(path string, mode uint32) error {
	return l.at(syscall.SYS_MKDIRAT, path, uintptr(mode&0o777))
}

// Chmod changes permission bits of the named file.
func (l *LocalFS) Chmod(path string, mode uint32) error {
	return l.at(syscall.SYS_FCHMODAT, path, uintptr(mode&0o777))
}

// Rename atomically renames a file or directory within the filesystem.
// As os.Rename does, it refuses to replace a directory (EEXIST) unless
// both names are one directory already, which costs the lstat of the
// new name that os.Rename makes too.
func (l *LocalFS) Rename(oldPath, newPath string) error {
	var obuf, nbuf [hostPathMax]byte
	ohp, err := l.hostPath(obuf[:0], oldPath)
	if err != nil {
		return err
	}
	nhp, err := l.hostPath(nbuf[:0], newPath)
	if err != nil {
		return err
	}
	var nst syscall.Stat_t
	if fstatat(atFDCWD, &nhp[0], &nst, atSymlinkNofollow) == nil && isDir(&nst) {
		var ost syscall.Stat_t
		if err := fstatat(atFDCWD, &ohp[0], &ost, atSymlinkNofollow); err != nil {
			return err
		}
		if string(ohp) == string(nhp) || ost.Dev != nst.Dev || ost.Ino != nst.Ino {
			return EEXIST
		}
	}
	for {
		_, _, e := syscall.Syscall6(sysRenameat, atFDCWD, uintptr(unsafe.Pointer(&ohp[0])), atFDCWD, uintptr(unsafe.Pointer(&nhp[0])), 0, 0)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// dirent64 is the layout of a getdents64 record: inode, offset, record
// length, type, then the NUL-terminated name.
const (
	direntIno    = 0
	direntReclen = 16
	direntType   = 18
	direntName   = 19
)

// ReadDir lists a directory, sorted by name as os.ReadDir sorts it. The
// kernel's records are read into a stack buffer and the names copied
// into one dirent block (AppendDirent), so a listing costs one string
// and the entry slice, plus the block's growth once it outgrows its
// stack array.
func (l *LocalFS) ReadDir(path string) ([]DirEntry, error) {
	var buf [hostPathMax]byte
	hp, err := l.hostPath(buf[:0], path)
	if err != nil {
		return nil, err
	}
	fd, err := openat(&hp[0], syscall.O_RDONLY|syscall.O_DIRECTORY, 0)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	var names [2048]byte
	var dents [4096]byte
	block, n := names[:0], 0
	for {
		m, _, e := syscall.Syscall(syscall.SYS_GETDENTS64, uintptr(fd), uintptr(unsafe.Pointer(&dents[0])), uintptr(len(dents)))
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return nil, errnoOf(e)
		}
		if m == 0 {
			break
		}
		if block, n, err = appendDirents(block, n, fd, dents[:m]); err != nil {
			return nil, err
		}
	}
	ents := DirEntries(block, n)
	slices.SortFunc(ents, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return ents, nil
}

// appendDirents appends the entries of the getdents64 records in dents
// to block and counts them in n, leaving out "." and "..". An entry of
// type DT_UNKNOWN — a filesystem that does not record types — is
// lstat'ed beneath the directory dirfd, as package os does.
func appendDirents(block []byte, n, dirfd int, dents []byte) ([]byte, int, error) {
	for rec, reclen := dents, 0; len(rec) > direntName; rec = rec[reclen:] {
		reclen = int(binary.NativeEndian.Uint16(rec[direntReclen:]))
		if reclen <= direntName || reclen > len(rec) {
			return block, n, EIO
		}
		ino, typ, name := binary.NativeEndian.Uint64(rec[direntIno:]), rec[direntType], rec[direntName:reclen]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		if ino == 0 || string(name) == "." || string(name) == ".." {
			continue
		}
		isdir := typ == syscall.DT_DIR
		if typ == syscall.DT_UNKNOWN {
			var st syscall.Stat_t
			err := fstatat(uintptr(dirfd), &rec[direntName], &st, atSymlinkNofollow)
			if AsErrno(err) == ENOENT {
				continue // removed since the directory was read
			}
			if err != nil {
				return block, n, err
			}
			isdir = isDir(&st)
		}
		block = AppendDirent(block, name, isdir)
		n++
	}
	return block, n, nil
}

// Truncate changes the length of the named file.
func (l *LocalFS) Truncate(path string, size int64) error {
	var buf [hostPathMax]byte
	hp, err := l.hostPath(buf[:0], path)
	if err != nil {
		return err
	}
	for {
		_, _, e := syscall.Syscall(syscall.SYS_TRUNCATE, uintptr(unsafe.Pointer(&hp[0])), uintptr(size), 0)
		if e != syscall.EINTR {
			return errnoErr(e)
		}
	}
}

// Checksum streams the named host file through the requested digest,
// never materializing it in memory (vfs.Checksummer). A directory
// yields EISDIR to match Open.
func (l *LocalFS) Checksum(path, algo string) (string, error) {
	h, err := NewHash(algo)
	if err != nil {
		return "", err
	}
	lf, fi, err := l.open(path, O_RDONLY, 0)
	if err != nil {
		return "", err
	}
	defer lf.Close()
	// The size only picks the buffer (one byte more, so an empty file
	// still gets one); the file is read to its end. The wrapper hides
	// the file's own WriteTo, which would bring a buffer of its own.
	bp := GetWindow(fi.Size + 1)
	defer PutBuf(bp)
	if _, err := io.CopyBuffer(h, struct{ io.Reader }{lf.f}, *bp); err != nil {
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
	return fileInfoOf(lf.name, st.Sys().(*syscall.Stat_t)), nil
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
