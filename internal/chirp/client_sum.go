package chirp

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"tss/internal/chirp/proto"
	"tss/internal/vfs"
)

// Client-side integrity: the Checksum RPC and the verified whole-file
// transfer paths. All errors here stay errno-clean — a digest mismatch
// or a broken trailer wraps vfs.ErrIntegrity together with an errno
// via %w, so vfs.AsErrno still answers and errors.Is(err,
// vfs.ErrIntegrity) identifies corruption precisely.

// Checksum computes the digest of a remote file where it lives — one
// round trip, no data transfer (vfs.Checksummer). Against a server
// that predates the verb it falls back to hashing a plain getfile
// stream client-side, so digest comparison keeps working across
// versions.
func (c *Client) Checksum(path, algo string) (string, error) {
	if algo == "" {
		algo = vfs.DefaultAlgo
	}
	if !c.supports(proto.Sums) {
		return c.hashRemote(path, algo)
	}
	var sum string
	var badTrailer bool
	_, err := c.rpc(&proto.Request{Verb: "checksum", Path: path, Algo: algo}, nil,
		func(code int64, br *bufio.Reader) error {
			if code < 0 {
				return nil
			}
			line, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			a, raw, perr := proto.ParseDigestTrailer(line)
			if perr != nil || a != algo {
				badTrailer = true
				return nil
			}
			sum = hex.EncodeToString(raw)
			return nil
		})
	if err != nil {
		if legacyRefusal(err) {
			// Either the server does not know the verb or the argument
			// was genuinely invalid; hashing the plain read path answers
			// both, and only a success proves the verb was the problem.
			if sum, err = c.hashRemote(path, algo); err == nil {
				c.refuse(proto.Sums)
			}
		}
		return sum, err
	}
	if badTrailer {
		return "", fmt.Errorf("chirp: checksum %s: malformed digest trailer: %w",
			path, errors.Join(vfs.EIO, vfs.ErrIntegrity))
	}
	return sum, nil
}

// hashRemote digests a file by reading it over the plain getfile path.
func (c *Client) hashRemote(path, algo string) (string, error) {
	h, err := vfs.NewHash(algo)
	if err != nil {
		return "", err
	}
	if _, err := c.getFilePlain(path, h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// GetFile streams the whole named file to w (vfs.FileGetter). With
// ClientConfig.Verify it uses getfilesum and checks the server's
// digest trailer against the received bytes; a server that predates
// the verb triggers one plain-getfile fallback and is remembered.
func (c *Client) GetFile(path string, w io.Writer) (int64, error) {
	if !c.cfg.Verify || !c.supports(proto.Sums) {
		return c.getFilePlain(path, w)
	}
	h, err := vfs.NewHash(vfs.DefaultAlgo)
	if err != nil {
		return 0, err
	}
	b := bodyRecv{w: w, h: h}
	err = c.receive(&proto.Request{Verb: "getfilesum", Path: path, Algo: vfs.DefaultAlgo}, &b)
	if legacyRefusal(err) {
		// Refused before the data phase: nothing was written to w. Only
		// a successful plain retry proves the verb — not the argument —
		// was the problem.
		n, err := c.getFilePlain(path, w)
		if err == nil {
			c.refuse(proto.Sums)
		}
		return n, err
	}
	return b.result(err)
}

// PutFile streams size bytes from r into the named file
// (vfs.FilePutter). With ClientConfig.Verify it uses the two-phase
// putfilesum verb: the server acknowledges readiness before the body
// (so an old server's EINVAL consumes nothing from r), then verifies
// the digest trailer and unlinks the file on mismatch.
func (c *Client) PutFile(path string, mode uint32, size int64, r io.Reader) error {
	if !c.cfg.Verify || !c.supports(proto.Sums) {
		return c.putFilePlain(path, mode, size, r)
	}
	err := c.putFileSum(path, mode, size, r)
	if legacyRefusal(err) {
		if err = c.putFilePlain(path, mode, size, r); err == nil {
			c.refuse(proto.Sums)
		}
	}
	return err
}

// putFileSum is PutFile over the two-phase putfilesum verb.
func (c *Client) putFileSum(path string, mode uint32, size int64, r io.Reader) error {
	h, err := vfs.NewHash(vfs.DefaultAlgo)
	if err != nil {
		return err
	}
	err = c.putStream(
		&proto.Request{Verb: "putfilesum", Path: path, Mode: int64(mode), Length: size, Algo: vfs.DefaultAlgo},
		size, io.TeeReader(r, h),
		func(dst []byte) []byte {
			return append(proto.AppendDigestTrailer(dst, vfs.DefaultAlgo, h.Sum(nil)), '\n')
		})
	if vfs.AsErrno(err) == vfs.EBADMSG {
		// The server hashed different bytes than were sent: the body was
		// corrupted in flight and the partial file was unlinked.
		return fmt.Errorf("chirp: putfile %s: server digest mismatch: %w",
			path, errors.Join(vfs.EIO, vfs.ErrIntegrity))
	}
	return err
}
