package abstraction

import (
	"bytes"
	"encoding/hex"
	"io"

	"tss/internal/vfs"
)

// Verify-on-read for the mirror. The wire digests of chirp protect a
// transfer in flight, but a replica whose disk silently corrupted a
// file will hash its own wrong bytes and produce a perfectly matching
// trailer — the lie is end-to-end consistent. The only authority that
// can catch it is another copy of the same data, so the mirror checks
// each whole-file read against a sibling replica's digest: one cheap
// checksum RPC (no second data transfer) buys the guarantee that a
// corrupt replica cannot answer a read while a healthy one exists.

var (
	_ vfs.FileGetter  = (*MirrorFS)(nil)
	_ vfs.Checksummer = (*MirrorFS)(nil)
)

// Checksum digests the file on the healthiest reachable replica
// (vfs.Checksummer). Note this vouches for one replica's copy, not for
// replica agreement — Scrub is the cross-replica comparison.
func (m *MirrorFS) Checksum(path, algo string) (string, error) {
	sum, _, err := mirrorRead(m, func(fs vfs.FileSystem) (string, error) {
		return vfs.ChecksumFile(fs, path, algo)
	}, nil)
	return sum, err
}

// readFileTo streams the whole file from one replica, via its getfile
// fast path when present and an open/pread loop otherwise.
func readFileTo(fs vfs.FileSystem, path string, w io.Writer) (int64, error) {
	if g := vfs.Capabilities(fs).FileGetter; g != nil {
		return g.GetFile(path, w)
	}
	f, err := fs.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 256<<10)
	var off int64
	for {
		n, err := f.Pread(buf, off)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return off, werr
			}
			off += int64(n)
		}
		if err == io.EOF || (err == nil && n == 0) {
			return off, nil
		}
		if err != nil {
			return off, err
		}
	}
}

// countingWriter tracks how many bytes escaped to the destination, so
// a failover path knows whether a retry would append garbage.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// GetFile streams the whole named file to w (vfs.FileGetter), served
// by the healthiest replica. With MirrorOptions.VerifyReads the
// payload is confirmed against a sibling digest first — see
// getFileVerified.
func (m *MirrorFS) GetFile(path string, w io.Writer) (int64, error) {
	if m.verifyReads {
		return m.getFileVerified(path, w)
	}
	ready, demoted := m.order()
	for _, i := range demoted {
		m.maybeProbe(i)
	}
	if len(ready) == 0 {
		m.Stats.FastFails.Inc()
		return 0, vfs.ENOTCONN
	}
	var lastErr error = vfs.ENOTCONN
	for _, i := range ready {
		cw := &countingWriter{w: w}
		n, err := readFileTo(m.replicas[i], path, cw)
		m.record(i, err)
		if err == nil || !unreachable(err) {
			return n, err
		}
		lastErr = err
		if cw.n > 0 {
			// Bytes already escaped to w; retrying on a sibling would
			// append a second copy after the torn prefix.
			return cw.n, lastErr
		}
	}
	return 0, lastErr
}

// getFileVerified buffers the payload from one replica, hashes it, and
// delivers it only once a sibling replica's digest confirms it. A
// payload a sibling *majority* votes down demotes its replica (the
// mismatch is EIO, which the breaker counts) and the read fails over;
// with a single reachable replica there is no second opinion and the
// payload is delivered unverified — availability wins when redundancy
// is already gone. A one-against-one disagreement is arbitrated by
// strike history: the replica previously caught serving voted-down
// bytes is the suspect, so a clean-history copy still reads correctly
// while a known-bad sibling lingers (corruption plus an outage must
// not take reads down). With equal histories nothing distinguishes the
// copies and the read fails with ErrIntegrity: fail-stop beats serving
// bytes that are wrong with probability one half.
func (m *MirrorFS) getFileVerified(path string, w io.Writer) (int64, error) {
	ready, demoted := m.order()
	for _, i := range demoted {
		m.maybeProbe(i)
	}
	if len(ready) == 0 {
		m.Stats.FastFails.Inc()
		return 0, vfs.ENOTCONN
	}
	var lastErr error = vfs.ENOTCONN
	for _, i := range ready {
		var buf bytes.Buffer
		_, err := readFileTo(m.replicas[i], path, &buf)
		if err != nil {
			m.record(i, err)
			if unreachable(err) {
				lastErr = err
				continue
			}
			return 0, err
		}
		got, err := digestOf(buf.Bytes(), m.sumAlgo)
		if err != nil {
			return 0, err
		}
		v := m.confirmDigest(ready, i, path, got)
		deliver := v.confirmed || v.answered == 0
		if !deliver && v.dissents == 1 &&
			m.strikes[v.dissenter].Load() > m.strikes[i].Load() {
			// The lone dissenter has a record of serving voted-down
			// bytes; its objection does not outweigh a cleaner history.
			deliver = true
		}
		if deliver {
			// Success lands on the breaker only now: a transfer that
			// verifies. Recording it at transfer time would reset the
			// consecutive-failure count and keep a corrupt replica from
			// ever tripping its breaker.
			m.record(i, nil)
			n, werr := w.Write(buf.Bytes())
			return int64(n), werr
		}
		ierr := vfs.ChecksumMismatch(path, m.sumAlgo, v.dissent, got)
		lastErr = ierr
		if v.dissents >= 2 ||
			(v.dissents == 1 && m.strikes[i].Load() > m.strikes[v.dissenter].Load()) {
			// A majority dissents, or the lone dissenter has the cleaner
			// record: replica i is the suspect. Strike it, charge its
			// breaker, and fail over; the sibling's own payload gets the
			// same scrutiny on the next iteration.
			m.strikes[i].Add(1)
			m.record(i, ierr)
			m.Stats.IntegrityFailovers.Inc()
			continue
		}
		// One against one with equal records: unarbitrable. Fail stop
		// without charging either breaker — blind blame would demote a
		// healthy replica half the time.
	}
	return 0, lastErr
}

// verdict is what the sibling replicas had to say about one payload.
type verdict struct {
	confirmed bool   // some sibling's digest matched
	answered  int    // siblings that produced a digest at all
	dissents  int    // siblings whose digest disagreed
	dissent   string // a dissenting digest, for the error message
	dissenter int    // replica index of the last dissenter
}

// confirmDigest asks the sibling replicas of i whether any of them
// holds bytes digesting to got.
func (m *MirrorFS) confirmDigest(ready []int, i int, path, got string) verdict {
	var v verdict
	for _, j := range ready {
		if j == i {
			continue
		}
		sum, err := vfs.ChecksumFile(m.replicas[j], path, m.sumAlgo)
		m.record(j, err)
		if err != nil {
			continue
		}
		v.answered++
		if sum == got {
			v.confirmed = true
			return v
		}
		v.dissents++
		v.dissent = sum
		v.dissenter = j
	}
	return v
}

// digestOf hashes an in-memory payload.
func digestOf(b []byte, algo string) (string, error) {
	h, err := vfs.NewHash(algo)
	if err != nil {
		return "", err
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}
