package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// Errno is the error number model shared by every layer of the TSS. The
// wire protocols carry these values as negative integers, exactly like
// Unix system call returns; the abstraction layers translate them back
// into Go errors. Values are fixed by the protocol and must not change.
type Errno int

// Protocol error numbers. These deliberately mirror the classic Unix
// values so that traces read naturally, but they are defined
// independently of the host platform: the wire format is portable.
const (
	EOK          Errno = 0   // success (never returned as an error)
	EPERM        Errno = 1   // operation not permitted
	ENOENT       Errno = 2   // no such file or directory
	EIO          Errno = 5   // input/output error
	EBADF        Errno = 9   // bad file descriptor
	EAGAIN       Errno = 11  // resource temporarily unavailable (overload pushback)
	EACCES       Errno = 13  // permission denied
	EBUSY        Errno = 16  // device or resource busy
	EEXIST       Errno = 17  // file exists
	ENOTDIR      Errno = 20  // not a directory
	EISDIR       Errno = 21  // is a directory
	EINVAL       Errno = 22  // invalid argument
	EMFILE       Errno = 24  // too many open files
	EFBIG        Errno = 27  // file too large
	ENOSPC       Errno = 28  // no space left on device
	EROFS        Errno = 30  // read-only file system
	ENAMETOOLONG Errno = 36  // file name too long
	ENOTEMPTY    Errno = 39  // directory not empty
	EBADMSG      Errno = 74  // bad message (digest verification failed)
	ENOTCONN     Errno = 107 // transport endpoint is not connected
	ESHUTDOWN    Errno = 108 // cannot send after transport endpoint shutdown (server draining)
	ETIMEDOUT    Errno = 110 // connection timed out
	ESTALE       Errno = 116 // stale file handle
)

var errnoText = map[Errno]string{
	EPERM:        "operation not permitted",
	ENOENT:       "no such file or directory",
	EIO:          "input/output error",
	EBADF:        "bad file descriptor",
	EAGAIN:       "resource temporarily unavailable",
	EACCES:       "permission denied",
	EBUSY:        "device or resource busy",
	EEXIST:       "file exists",
	ENOTDIR:      "not a directory",
	EISDIR:       "is a directory",
	EINVAL:       "invalid argument",
	EMFILE:       "too many open files",
	EFBIG:        "file too large",
	ENOSPC:       "no space left on device",
	EROFS:        "read-only file system",
	ENAMETOOLONG: "file name too long",
	ENOTEMPTY:    "directory not empty",
	EBADMSG:      "bad message",
	ENOTCONN:     "transport endpoint is not connected",
	ESHUTDOWN:    "cannot send after transport endpoint shutdown",
	ETIMEDOUT:    "connection timed out",
	ESTALE:       "stale file handle",
}

// Error implements the error interface.
func (e Errno) Error() string {
	if s, ok := errnoText[e]; ok {
		return s
	}
	return fmt.Sprintf("errno %d", int(e))
}

// Is makes Errno compatible with errors.Is against the sentinel errors
// in io/fs, so callers can use fs.ErrNotExist and friends.
func (e Errno) Is(target error) bool {
	switch target {
	case fs.ErrNotExist:
		return e == ENOENT
	case fs.ErrPermission:
		return e == EACCES || e == EPERM
	case fs.ErrExist:
		return e == EEXIST
	case fs.ErrClosed:
		return e == EBADF
	}
	return false
}

// AsErrno extracts the protocol error number from err. Errors that did
// not originate in the TSS stack are mapped from the nearest os/syscall
// meaning, defaulting to EIO. A chain of single wrappers (%w, *fs.PathError,
// *os.SyscallError) that ends in an Errno or a syscall.Errno is walked
// without allocating; anything else (joined errors, As methods, the io/fs
// sentinels) goes through errors.As and errors.Is.
func AsErrno(err error) Errno {
	if err == nil {
		return EOK
	}
	for e := err; ; {
		switch v := e.(type) {
		case Errno:
			return v
		case syscall.Errno:
			return errnoOf(v)
		case interface{ As(any) bool }:
		case interface{ Unwrap() error }:
			if e = v.Unwrap(); e != nil {
				continue
			}
		}
		break
	}
	var e Errno
	if errors.As(err, &e) {
		return e
	}
	var sys syscall.Errno
	if errors.As(err, &sys) {
		return errnoOf(sys)
	}
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return ENOENT
	case errors.Is(err, fs.ErrPermission):
		return EACCES
	case errors.Is(err, fs.ErrExist):
		return EEXIST
	case errors.Is(err, fs.ErrClosed):
		return EBADF
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return ENOTCONN
	case errors.Is(err, os.ErrDeadlineExceeded):
		return ETIMEDOUT
	}
	return EIO
}

// errnoOf maps a host error number to the protocol's, defaulting to EIO.
func errnoOf(sys syscall.Errno) Errno {
	switch sys {
	case syscall.EPERM:
		return EPERM
	case syscall.ENOENT:
		return ENOENT
	case syscall.EBADF:
		return EBADF
	case syscall.EAGAIN:
		return EAGAIN
	case syscall.EACCES:
		return EACCES
	case syscall.EBUSY:
		return EBUSY
	case syscall.EEXIST:
		return EEXIST
	case syscall.ENOTDIR:
		return ENOTDIR
	case syscall.EISDIR:
		return EISDIR
	case syscall.EINVAL:
		return EINVAL
	case syscall.EMFILE, syscall.ENFILE:
		return EMFILE
	case syscall.EFBIG:
		return EFBIG
	case syscall.ENOSPC:
		return ENOSPC
	case syscall.EROFS:
		return EROFS
	case syscall.ENAMETOOLONG:
		return ENAMETOOLONG
	case syscall.ENOTEMPTY:
		return ENOTEMPTY
	case syscall.EBADMSG:
		return EBADMSG
	case syscall.ENOTCONN:
		return ENOTCONN
	case syscall.ESHUTDOWN:
		return ESHUTDOWN
	case syscall.ETIMEDOUT:
		return ETIMEDOUT
	case syscall.ESTALE:
		return ESTALE
	}
	return EIO
}

// FromCode converts a wire error number into an error. Zero and
// positive codes yield nil.
func FromCode(code int) error {
	if code >= 0 {
		return nil
	}
	return Errno(-code)
}

// Code converts an error into a wire return value: 0 for nil, otherwise
// the negated errno.
func Code(err error) int {
	if err == nil {
		return 0
	}
	return -int(AsErrno(err))
}
