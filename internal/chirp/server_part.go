package chirp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"

	"tss/internal/acl"
	"tss/internal/chirp/proto"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// The multipart transfer RPCs: putbegin/putpart/putcomplete and
// getpart. Parts are addressed by path and offset rather than by
// descriptor, so the chunks of one file can arrive on different
// connections — a pooled client fans them out — and each request is
// self-contained. putbegin creates the destination at its final path
// and full size (concurrent putparts then land in a fully allocated
// file, and an aborted transfer is cleaned up with a plain unlink);
// putcomplete checks the assembled size and, with an algo, the
// composed whole-file digest, removing the file on mismatch. Like the
// digest verbs these are separate verbs, not flags, so an old server
// answers EINVAL with its framing intact and clients can negotiate
// (putbegin carries no body, which makes it the put-side probe).

// handlePutbegin opens a multipart upload: create (or replace) the
// file and pre-size it, so offset writers never extend the file
// concurrently. No body follows the request line.
func (ss *session) handlePutbegin(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if req.Size < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		return ss.respondErr(bw, err)
	}
	f, err := ss.srv.fs.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, uint32(req.Mode))
	if err != nil {
		return ss.respondErr(bw, err)
	}
	terr := f.Ftruncate(req.Size)
	cerr := f.Close()
	if terr == nil {
		terr = cerr
	}
	if terr != nil {
		ss.srv.fs.Unlink(path)
	}
	// Also when the file is gone again: it was visible in between.
	ss.srv.breakLeases(path, pathutil.Dir(path))
	return ss.respondErr(bw, terr)
}

// drainBody consumes a request body that cannot be applied — Length
// raw bytes and, when the request named an algo, the digest trailer
// line behind them — keeping the stream in sync for the error response.
func drainBody(br *bufio.Reader, req *proto.Request) error {
	if _, err := io.CopyN(io.Discard, br, req.Length); err != nil {
		return err
	}
	if req.Algo != "" {
		if _, err := proto.ReadLine(br); err != nil {
			return err
		}
	}
	return nil
}

// zeroPartRange overwrites [off, off+length) with zeros, restoring the
// pre-sized hole putbegin left there: a chunk that failed verification
// is discarded, not left as wrong bytes at rest.
func zeroPartRange(f vfs.File, off, length int64) {
	bp := vfs.GetWindow(length)
	defer vfs.PutBuf(bp)
	buf := *bp
	for i := range buf {
		buf[i] = 0
	}
	for length > 0 {
		want := int64(len(buf))
		if length < want {
			want = length
		}
		if err := vfs.WriteAll(f, buf[:want], off); err != nil {
			return // best effort; putcomplete's composed digest still protects
		}
		off += want
		length -= want
	}
}

// handlePutpart stores one chunk at its offset. With an algo the body
// is followed by a digest trailer the server verifies; a mismatched
// chunk is zeroed back out and answered with EBADMSG — no other chunk
// is touched, so the client retries just this one. Without an algo the
// body streams over the zero-copy bulk path when the transport and
// file allow it, exactly like putfile.
func (ss *session) handlePutpart(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	if req.Length < 0 || req.Offset < 0 {
		// Cannot honor the data phase safely; the stream is desynced.
		ss.respondErr(bw, vfs.EINVAL)
		return fmt.Errorf("putpart length or offset out of range")
	}
	path := req.Path
	var h = (interface {
		io.Writer
		Sum([]byte) []byte
	})(nil)
	var err error
	if req.Algo != "" {
		h, err = vfs.NewHash(req.Algo)
		if err != nil {
			if derr := drainBody(br, req); derr != nil {
				return derr
			}
			return ss.respondErr(bw, err)
		}
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		if derr := drainBody(br, req); derr != nil {
			return derr
		}
		return ss.respondErr(bw, err)
	}
	// No O_CREAT: the file must exist from putbegin, so a stray putpart
	// cannot conjure partial state outside a framed transfer.
	f, err := ss.srv.fs.Open(path, vfs.O_WRONLY, 0)
	if err != nil {
		if derr := drainBody(br, req); derr != nil {
			return derr
		}
		return ss.respondErr(bw, err)
	}
	// The chunk is about to land: break leases before any bytes change.
	ss.srv.breakLeases(path)
	if req.Algo == "" {
		if tcp := bulkConn(conn); tcp != nil {
			if osf := osFileOf(f); osf != nil {
				// Zero-copy chunk path: position the host file at the chunk
				// offset and splice the body straight from the socket, as
				// putfile does from offset zero.
				if _, err := osf.Seek(req.Offset, io.SeekStart); err != nil {
					f.Close()
					if derr := drainBody(br, req); derr != nil {
						return derr
					}
					return ss.respondErr(bw, err)
				}
				ss.srv.Stats.MultipartFastpath.Inc()
				consumed, copyErr, transport := receiveBulk(osf, conn, br, req.Length)
				ss.srv.Stats.BytesWriten.Add(consumed)
				if copyErr != nil {
					f.Close()
					if transport {
						return copyErr
					}
					// Write-side failure: resynchronize the stream by
					// draining the rest of the body, then report.
					if _, err := io.CopyN(io.Discard, br, req.Length-consumed); err != nil {
						return err
					}
					return ss.respondErr(bw, vfs.AsErrno(copyErr))
				}
				if consumed < req.Length {
					// The peer closed mid-body: nothing more will arrive.
					f.Close()
					return io.ErrUnexpectedEOF
				}
				if err := f.Close(); err != nil {
					return ss.respondErr(bw, err)
				}
				return respondCode(bw, req.Length)
			}
		}
	}
	bp := vfs.GetWindow(req.Length)
	defer vfs.PutBuf(bp)
	buf := *bp
	var done int64
	var writeErr error
	for done < req.Length {
		if ss.deadlineLapsed() {
			f.Close()
			return ss.abortStream()
		}
		want := int64(len(buf))
		if req.Length-done < want {
			want = req.Length - done
		}
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			f.Close()
			return err
		}
		if h != nil {
			h.Write(buf[:want])
		}
		if writeErr == nil {
			// A failed write (disk full) stops writing but keeps draining
			// body and trailer: the stream must stay in sync.
			writeErr = vfs.WriteAll(f, buf[:want], req.Offset+done)
		}
		done += want
		ss.srv.Stats.BytesWriten.Add(want)
	}
	if req.Algo != "" {
		line, err := proto.ReadLine(br)
		if err != nil {
			f.Close()
			return err
		}
		algo, sum, perr := proto.ParseDigestTrailer(line)
		if writeErr == nil && (perr != nil || algo != req.Algo || !bytes.Equal(sum, h.Sum(nil))) {
			zeroPartRange(f, req.Offset, req.Length)
			f.Close()
			return ss.respondErr(bw, vfs.EBADMSG)
		}
	}
	closeErr := f.Close()
	if writeErr == nil {
		writeErr = closeErr
	}
	if writeErr != nil {
		return ss.respondErr(bw, writeErr)
	}
	return respondCode(bw, req.Length)
}

// handlePutcomplete closes a multipart upload: the assembled file must
// have the promised size and — with an algo — hash to the composed
// whole-file digest the client folded from its chunk digests. Any
// mismatch removes the file and answers EBADMSG, so a torn multipart
// transfer never survives at rest.
func (ss *session) handlePutcomplete(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if req.Size < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	if req.Algo != "" {
		if _, err := vfs.NewHash(req.Algo); err != nil {
			return ss.respondErr(bw, err)
		}
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		return ss.respondErr(bw, err)
	}
	fi, err := ss.srv.fs.Stat(path)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if fi.Size != req.Size {
		ss.srv.fs.Unlink(path)
		ss.srv.breakLeases(path, pathutil.Dir(path))
		return ss.respondErr(bw, vfs.EBADMSG)
	}
	if req.Algo != "" {
		sum, err := ss.srv.fs.Checksum(path, req.Algo)
		if err != nil {
			return ss.respondErr(bw, err)
		}
		if !strings.EqualFold(sum, req.Sum) {
			ss.srv.fs.Unlink(path)
			ss.srv.breakLeases(path, pathutil.Dir(path))
			return ss.respondErr(bw, vfs.EBADMSG)
		}
	}
	return respondCode(bw, 0)
}

// handleGetpart streams up to length bytes at the given offset,
// clamped at end of file, followed by a digest trailer when the
// request named an algo. Without an algo the chunk takes the zero-copy
// sendfile path when the transport and file allow it.
func (ss *session) handleGetpart(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if req.Length < 0 || req.Offset < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	var h = (interface {
		io.Writer
		Sum([]byte) []byte
	})(nil)
	var err error
	if req.Algo != "" {
		h, err = vfs.NewHash(req.Algo)
		if err != nil {
			return ss.respondErr(bw, err)
		}
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.R); err != nil {
		return ss.respondErr(bw, err)
	}
	f, err := ss.srv.fs.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	defer f.Close()
	fi, err := f.Fstat()
	if err != nil {
		return ss.respondErr(bw, err)
	}
	n := int64(0)
	if req.Offset < fi.Size {
		n = fi.Size - req.Offset
		if n > req.Length {
			n = req.Length
		}
	}
	if err := respondCode(bw, n); err != nil {
		return err
	}
	// Exactly n bytes were promised; a concurrently shrinking file is
	// zero-padded (and the padding is hashed: the digest covers what was
	// sent, which is the contract).
	var sent int64
	if req.Algo == "" && n > 0 {
		if tcp := bulkConn(conn); tcp != nil {
			if osf := osFileOf(f); osf != nil {
				// Zero-copy chunk path: flush the status line, position the
				// host file, and hand it straight to the TCP stack
				// (TCPConn.ReadFrom → sendfile(2)).
				if _, err := osf.Seek(req.Offset, io.SeekStart); err != nil {
					return err
				}
				// Counted before the first byte leaves, as getfile's.
				ss.srv.Stats.MultipartFastpath.Inc()
				if err := bw.Flush(); err != nil {
					return err
				}
				sent, err = io.Copy(tcp, &io.LimitedReader{R: osf, N: n})
				ss.srv.Stats.BytesRead.Add(sent)
				if err != nil {
					return err
				}
				// A shrunken file leaves sent < n: pad below.
			}
		}
	}
	bp := vfs.GetWindow(n - sent)
	defer vfs.PutBuf(bp)
	buf := *bp
	for sent < n {
		if ss.deadlineLapsed() {
			return ss.abortStream()
		}
		want := int64(len(buf))
		if n-sent < want {
			want = n - sent
		}
		got, err := f.Pread(buf[:want], req.Offset+sent)
		if err != nil {
			return err
		}
		if got == 0 {
			for i := range buf[:want] {
				buf[i] = 0
			}
			got = int(want)
		}
		if h != nil {
			h.Write(buf[:got])
		}
		if _, err := bw.Write(buf[:got]); err != nil {
			return err
		}
		sent += int64(got)
		ss.srv.Stats.BytesRead.Add(int64(got))
	}
	if req.Algo != "" {
		ss.scratch = append(proto.AppendDigestTrailer(ss.scratch[:0], req.Algo, h.Sum(nil)), '\n')
		if _, err := bw.Write(ss.scratch); err != nil {
			return err
		}
	}
	return nil
}
