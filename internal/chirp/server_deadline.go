package chirp

// Server-side deadline propagation (DESIGN.md §15). A client with a
// request timeout writes a pipelined "deadline <remaining_ms>" prefix
// line before the real request; the server arms it here and the
// dispatch loop fast-rejects the governed request with ETIMEDOUT once
// the budget lapses — before admission, after a queue wait, or midway
// through a bulk stream. Rejecting work nobody is waiting for is what
// keeps an overloaded server's remaining capacity pointed at requests
// that can still succeed.

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"tss/internal/chirp/proto"
	"tss/internal/vfs"
)

// handleDeadline arms the deadline for the next request on this
// session. The budget is relative (milliseconds remaining), so clock
// skew between client and server does not shift it.
func (ss *session) handleDeadline(req *proto.Request, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	if req.Budget < 0 {
		return ss.respondErr(bw, vfs.EINVAL)
	}
	ss.armed = time.Now().Add(time.Duration(req.Budget) * time.Millisecond)
	return respondCode(bw, 0)
}

// deadlineLapsed reports whether the deadline governing the request in
// flight has passed. Bulk streaming loops poll it between chunks.
func (ss *session) deadlineLapsed() bool {
	return !ss.reqDeadline.IsZero() && time.Now().After(ss.reqDeadline)
}

// abortStream is the fatal error for a bulk transfer whose deadline
// lapsed mid-stream: the client's own timeout has already fired, so the
// connection is torn down rather than fed bytes nobody will read.
func (ss *session) abortStream() error {
	ss.srv.Stats.DeadlineRejects.Inc()
	return fmt.Errorf("chirp: deadline lapsed mid-transfer")
}

// reject refuses a parsed request with err before its handler runs,
// keeping the stream in sync: a verb whose body follows the line unasked
// has already committed it to the wire, so the body (and any digest
// trailer) is drained before the status line is written. Two-phase
// verbs and all read verbs carry no blind body.
func (ss *session) reject(v *proto.Verb, req *proto.Request, br *bufio.Reader, bw *bufio.Writer, err error) error {
	if v.Body == proto.BodyLength || v.Body == proto.BodyTrailer {
		if req.Length < 0 {
			ss.respondErr(bw, vfs.EINVAL)
			return fmt.Errorf("%s length out of range", req.Verb)
		}
		if derr := drainBody(br, req); derr != nil {
			return derr
		}
	}
	return ss.respondErr(bw, err)
}
