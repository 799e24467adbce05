package vfs

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"crypto/sha256"
	"encoding/hex"
)

// Digest algorithms understood by every layer. The names travel over
// the wire (checksum/getfilesum/putfilesum RPCs), so they are fixed by
// the protocol: crc32c is the cheap default for detecting bit rot and
// torn transfers; sha256 is for callers that also care about collision
// resistance.
const (
	AlgoCRC32C = "crc32c"
	AlgoSHA256 = "sha256"
)

// DefaultAlgo is the digest used when a caller does not choose one.
const DefaultAlgo = AlgoCRC32C

// ErrIntegrity marks data that failed digest verification: a payload
// whose computed checksum does not match the digest promised by the
// source. It is always wrapped together with an Errno (EIO), so both
// errors.Is(err, ErrIntegrity) and AsErrno(err) == EIO hold; the
// resilience layer thus treats a lying replica like a failing one and
// demotes it, while callers that care specifically about corruption
// can still tell it apart from an ordinary I/O error.
var ErrIntegrity = errors.New("integrity check failed")

// ChecksumMismatch constructs the canonical integrity failure for a
// path: the computed digest got disagrees with the expected digest
// want. The result wraps both EIO and ErrIntegrity.
func ChecksumMismatch(path, algo, want, got string) error {
	return fmt.Errorf("%s: %s digest %s, want %s: %w",
		path, algo, got, want, errors.Join(EIO, ErrIntegrity))
}

// castagnoli is the CRC32C polynomial table, shared by all hashers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewHash returns a streaming hasher for the named digest algorithm,
// or EINVAL for an unknown name.
func NewHash(algo string) (hash.Hash, error) {
	switch algo {
	case AlgoCRC32C:
		return crc32.New(castagnoli), nil
	case AlgoSHA256:
		return sha256.New(), nil
	}
	return nil, fmt.Errorf("unknown digest algorithm %q: %w", algo, EINVAL)
}

// Checksummer is the optional content-digest interface: compute the
// digest of a whole file where the data lives, without shipping the
// bytes to the caller. A Chirp client forwards it as one round trip
// (the checksum RPC); the local filesystem streams the host file. The
// digest is returned as lowercase hex. Reach it through Capabilities,
// never by direct type assertion.
type Checksummer interface {
	Checksum(path string, algo string) (string, error)
}

// ChecksumFile computes the digest of a file, using the Checksummer
// fast path when fs provides one and reading the file through the
// FileGetter/open-pread path otherwise.
func ChecksumFile(fs FileSystem, path, algo string) (string, error) {
	if cs := Capabilities(fs).Checksummer; cs != nil {
		return cs.Checksum(path, algo)
	}
	return HashFile(fs, path, algo)
}

// HashFile computes a file's digest by reading its bytes through fs.
// It is the portable fallback behind ChecksumFile and the reference
// implementation the wire digests are compared against.
func HashFile(fs FileSystem, path, algo string) (string, error) {
	h, err := NewHash(algo)
	if err != nil {
		return "", err
	}
	if g := Capabilities(fs).FileGetter; g != nil {
		if _, err := g.GetFile(path, h); err != nil {
			return "", err
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
	f, err := fs.Open(path, O_RDONLY, 0)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bp := GetBuf(Window)
	defer PutBuf(bp)
	buf := *bp
	var off int64
	for {
		n, err := f.Pread(buf, off)
		if n > 0 {
			h.Write(buf[:n])
			off += int64(n)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return "", err
		}
		if n == 0 {
			break
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
