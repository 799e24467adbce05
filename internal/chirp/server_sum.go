package chirp

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"net"

	"tss/internal/acl"
	"tss/internal/chirp/proto"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// The digest RPCs: checksum computes a file's digest server-side;
// getfilesum/putfilesum are getfile/putfile with a digest trailer line
// after the body, so the receiver can verify every byte that crossed
// the wire. They are separate verbs rather than flags on the old ones
// so that an old server answers EINVAL with its framing intact and the
// client can fall back (see Client.refused).

// handleChecksum computes a file digest where the data lives — one
// round trip instead of shipping the file.
func (ss *session) handleChecksum(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if err := ss.srv.checkParent(ss.subject, path, acl.R); err != nil {
		return ss.respondErr(bw, err)
	}
	sum, err := ss.srv.fs.Checksum(path, req.Algo)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	raw, err := hex.DecodeString(sum)
	if err != nil {
		return ss.respondErr(bw, vfs.EIO)
	}
	if err := respondCode(bw, 0); err != nil {
		return err
	}
	ss.scratch = append(proto.AppendDigestTrailer(ss.scratch[:0], req.Algo, raw), '\n')
	_, err = bw.Write(ss.scratch)
	return err
}

// handleGetfilesum streams the file body followed by a digest trailer.
// Unlike getfile it cannot use the sendfile fast path — the digest must
// see every byte — so the body is pumped through the buffered path with
// the hasher teed in; it remains one pass and one round trip.
func (ss *session) handleGetfilesum(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	h, err := vfs.NewHash(req.Algo)
	if err != nil {
		return ss.respondErr(bw, err)
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
	if err := respondCode(bw, fi.Size); err != nil {
		return err
	}
	// Exactly fi.Size bytes were promised; a concurrently shrinking file
	// is zero-padded (and the padding is hashed: the digest covers what
	// was sent, which is the contract).
	bp := vfs.GetWindow(fi.Size)
	defer vfs.PutBuf(bp)
	buf := *bp
	var off int64
	for off < fi.Size {
		if ss.deadlineLapsed() {
			return ss.abortStream()
		}
		want := int64(len(buf))
		if fi.Size-off < want {
			want = fi.Size - off
		}
		n, err := f.Pread(buf[:want], off)
		if err != nil {
			return err
		}
		if n == 0 {
			for i := range buf[:want] {
				buf[i] = 0
			}
			n = int(want)
		}
		h.Write(buf[:n])
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		off += int64(n)
		ss.srv.Stats.BytesRead.Add(int64(n))
		ss.srv.mBytesRead.Add(int64(n))
	}
	ss.scratch = append(proto.AppendDigestTrailer(ss.scratch[:0], req.Algo, h.Sum(nil)), '\n')
	_, err = bw.Write(ss.scratch)
	return err
}

// handlePutfilesum is a two-phase putfile with verification. Phase 1
// validates path, rights, and algorithm and answers a ready line (0)
// before the client commits any body bytes — which is what lets a
// client probe a server that predates the verb: an old server answers
// EINVAL to the bare request line and no body is ever sent, so the
// stream stays in sync. Phase 2 receives body plus digest trailer; on
// mismatch the file is unlinked and the client gets EBADMSG, so a torn
// transfer never survives at rest.
func (ss *session) handlePutfilesum(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	path := req.Path
	if req.Length < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	h, err := vfs.NewHash(req.Algo)
	if err != nil {
		return ss.respondErr(bw, err)
	}
	if err := ss.srv.checkParent(ss.subject, path, acl.W); err != nil {
		return ss.respondErr(bw, err)
	}
	f, err := ss.srv.fs.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, uint32(req.Mode))
	if err != nil {
		return ss.respondErr(bw, err)
	}
	// Created or truncated: break leases before any acknowledgement.
	ss.srv.breakLeases(path, pathutil.Dir(path))
	if err := respondCode(bw, 0); err != nil {
		f.Close()
		return err
	}
	// The client waits for the ready line before streaming.
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	bp := vfs.GetWindow(req.Length)
	defer vfs.PutBuf(bp)
	buf := *bp
	var off int64
	var writeErr error
	for off < req.Length {
		if ss.deadlineLapsed() {
			f.Close()
			return ss.abortStream()
		}
		want := int64(len(buf))
		if req.Length-off < want {
			want = req.Length - off
		}
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			f.Close()
			return err
		}
		h.Write(buf[:want])
		if writeErr == nil {
			// A failed write (disk full) stops writing but keeps
			// draining body and trailer: the stream must stay in sync.
			writeErr = vfs.WriteAll(f, buf[:want], off)
		}
		off += want
		ss.srv.Stats.BytesWriten.Add(want)
		ss.srv.mBytesWritten.Add(want)
	}
	line, err := proto.ReadLine(br)
	if err != nil {
		f.Close()
		return err
	}
	algo, sum, perr := proto.ParseDigestTrailer(line)
	closeErr := f.Close()
	if writeErr == nil {
		writeErr = closeErr
	}
	if writeErr == nil && (perr != nil || algo != req.Algo || !bytes.Equal(sum, h.Sum(nil))) {
		writeErr = vfs.EBADMSG
	}
	if writeErr != nil {
		// The file was visible since the open; whoever leased it then
		// must learn that it is gone again.
		ss.srv.fs.Unlink(path)
		ss.srv.breakLeases(path, pathutil.Dir(path))
		return ss.respondErr(bw, writeErr)
	}
	return respondCode(bw, req.Length)
}
