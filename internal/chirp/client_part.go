package chirp

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"tss/internal/chirp/proto"
	"tss/internal/vfs"
)

// Client side of the multipart transfer verbs (getpart, putbegin,
// putpart, putcomplete). Parts are addressed by path and offset — not
// by descriptor — so the multipart engine can fan chunks of one file
// out across the connections of a chirp.Client, each chunk a
// self-contained round trip on whichever connection it is dispatched to.
//
// Negotiation with servers that predate the verbs is the engine's job,
// not this layer's: putbegin carries no body, so its EINVAL arrives
// with the stream in sync and proves (or disproves) server support for
// the whole put family before the first blind putpart body is
// streamed; a zero-length getpart probes the read side the same way.
// No answer is memoized here — an EINVAL earned by a genuinely bad
// argument must not disable multipart for the life of the client.

// GetPart streams up to length bytes at offset off of the named file
// into w (vfs.PartGetter, the getpart verb). With a non-empty algo the
// body is teed through the digest and checked against the server's
// trailer; the chunk digest (lowercase hex) is returned for the
// engine's whole-file composition. The server clamps the transfer at
// end of file, so the returned count can be short.
func (c *Client) GetPart(path string, off, length int64, algo string, w io.Writer) (int64, string, error) {
	b := bodyRecv{w: w}
	if algo != "" {
		h, err := vfs.NewHash(algo)
		if err != nil {
			return 0, "", err
		}
		b.h = h
	}
	n, err := b.result(c.receive(
		&proto.Request{Verb: "getpart", Path: path, Offset: off, Length: length, Algo: algo}, &b))
	return n, b.sum, err
}

// PutBegin opens a multipart upload (vfs.PartPutter, the putbegin
// verb): the destination is created at its final path and full size,
// so concurrent putparts land in a fully allocated file. It carries no
// body, which makes it the natural negotiation probe — an old server's
// EINVAL arrives before any putpart has streamed blind.
func (c *Client) PutBegin(path string, mode uint32, size int64) error {
	_, err := c.rpc(&proto.Request{Verb: "putbegin", Path: path, Mode: int64(mode), Size: size}, nil, nil)
	return err
}

// PutPart stores length bytes from r at offset off of the named file
// (vfs.PartPutter, the putpart verb). With a non-empty algo the chunk
// carries a digest trailer the server verifies before acknowledging —
// a mismatch answers EBADMSG without touching other chunks, so one
// corrupted chunk retries independently. The chunk digest (lowercase
// hex) is returned for the engine's whole-file composition.
//
// The body streams without a ready phase; callers must have proven
// server support with PutBegin first (an old server's mid-body EINVAL
// could not be distinguished from data).
func (c *Client) PutPart(path string, off, length int64, algo string, r io.Reader) (string, error) {
	req := &proto.Request{Verb: "putpart", Path: path, Offset: off, Length: length, Algo: algo}
	if algo == "" {
		return "", c.putStream(req, length, r, nil)
	}
	h, err := vfs.NewHash(algo)
	if err != nil {
		return "", err
	}
	err = c.putStream(req, length, io.TeeReader(r, h),
		func(dst []byte) []byte {
			return append(proto.AppendDigestTrailer(dst, algo, h.Sum(nil)), '\n')
		})
	if vfs.AsErrno(err) == vfs.EBADMSG {
		// The server hashed different bytes than were sent: this chunk
		// was corrupted in flight (and discarded server-side).
		return "", fmt.Errorf("chirp: putpart %s@%d: server digest mismatch: %w",
			path, off, errors.Join(vfs.EIO, vfs.ErrIntegrity))
	}
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// PutComplete closes a multipart upload (vfs.PartPutter, the
// putcomplete verb): the server checks the assembled file's size and —
// with a non-empty algo — its whole-file digest against sum, removing
// the file on any mismatch so a torn transfer never survives at rest.
func (c *Client) PutComplete(path string, size int64, algo, sum string) error {
	_, err := c.rpc(&proto.Request{Verb: "putcomplete", Path: path, Size: size, Algo: algo, Sum: sum}, nil, nil)
	if vfs.AsErrno(err) == vfs.EBADMSG {
		return fmt.Errorf("chirp: putcomplete %s: composed digest mismatch, file removed: %w",
			path, errors.Join(vfs.EIO, vfs.ErrIntegrity))
	}
	return err
}
