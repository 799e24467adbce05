package chirp

// Client-side read leases (vfs.Leaser): the lease/leasebreak RPCs with
// the PR 5/7 negotiation downgrade. A server that predates the verbs
// answers EINVAL with its framing intact — lease carries no data
// phase, so the refusal is inherently stream-safe and the client can
// memoize it directly: a supporting server never answers EINVAL to a
// normalized path (missing files are ENOENT, denied paths EACCES), so
// there is no plain-verb retry to disambiguate with, unlike the digest
// fallback in client_sum.go.

import (
	"bufio"
	"fmt"
	"time"

	"tss/internal/chirp/proto"
	"tss/internal/vfs"
)

// Lease asks the server for a read lease on path (vfs.Leaser). Against
// a server that predates the verb it fails with EINVAL and remembers,
// so a caching layer stops probing after the first refusal.
func (c *Client) Lease(path string) (vfs.Lease, error) {
	if !c.supports(proto.Leases) {
		return vfs.Lease{}, vfs.EINVAL
	}
	var l vfs.Lease
	var badBody bool
	_, err := c.rpc(&proto.Request{Verb: "lease", Path: path}, nil,
		func(code int64, br *bufio.Reader) error {
			if code < 0 {
				return nil
			}
			line, err := proto.ReadLine(br)
			if err != nil {
				return err
			}
			var ttlMS int64
			if _, serr := fmt.Sscanf(line, "%d %d %d", &l.ID, &ttlMS, &l.Version); serr != nil {
				badBody = true
				return nil
			}
			l.TTL = time.Duration(ttlMS) * time.Millisecond
			return nil
		})
	if err != nil {
		if legacyRefusal(err) {
			c.refuse(proto.Leases)
		}
		return vfs.Lease{}, err
	}
	if badBody {
		return vfs.Lease{}, fmt.Errorf("chirp: lease %s: malformed grant line: %w", path, vfs.EIO)
	}
	return l, nil
}

// LeaseBreak releases a previously granted lease early (vfs.Leaser).
// Releasing a lease the server no longer tracks (expired, broken by a
// writer, or granted on a connection that died) answers EBADF, which
// callers treat as already-released.
func (c *Client) LeaseBreak(id int64) error {
	if !c.supports(proto.Leases) {
		return vfs.EINVAL
	}
	_, err := c.rpc(&proto.Request{Verb: "leasebreak", FD: id}, nil, nil)
	if legacyRefusal(err) {
		c.refuse(proto.Leases)
	}
	return err
}
