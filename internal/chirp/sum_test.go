package chirp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// verifyClient dials with end-to-end digest verification enabled.
func (ts *testServer) verifyClient(t *testing.T, host string) *Client {
	t.Helper()
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom(host, "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// localDigest computes the reference digest the server should report.
func localDigest(t *testing.T, data []byte, algo string) string {
	t.Helper()
	h, err := vfs.NewHash(algo)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

func TestChecksumRPC(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	data := bytes.Repeat([]byte("digest me "), 1000)
	if err := vfs.WriteFile(c, "/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"sha256", "crc32c"} {
		sum, err := c.Checksum("/f", algo)
		if err != nil {
			t.Fatalf("checksum %s: %v", algo, err)
		}
		if want := localDigest(t, data, algo); sum != want {
			t.Errorf("checksum %s = %s, want %s", algo, sum, want)
		}
	}
	if _, err := c.Checksum("/missing", "sha256"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("checksum of missing file = %v, want ENOENT", err)
	}
}

// TestVerifiedRoundTrip puts and gets through the digest-trailer verbs
// and confirms the client never falls back to the plain path against a
// digest-aware server.
func TestVerifiedRoundTrip(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.verifyClient(t, "owner.sim")
	data := bytes.Repeat([]byte("verified bulk transfer "), 4096)

	if err := vfs.PutReader(c, "/bulk", 0o644, int64(len(data)), bytes.NewReader(data)); err != nil {
		t.Fatalf("verified put: %v", err)
	}
	var got bytes.Buffer
	n, err := c.GetFile("/bulk", &got)
	if err != nil {
		t.Fatalf("verified get: %v", err)
	}
	if n != int64(len(data)) || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("verified get returned %d bytes, mismatch=%v", n, !bytes.Equal(got.Bytes(), data))
	}
	if !c.supports(proto.Sums) {
		t.Error("client marked server digest-incapable after successful sum verbs")
	}
}

// TestPutfilesumRejectsBadDigest drives the raw two-phase putfilesum
// exchange with a deliberately wrong trailer: the server must reject
// with EBADMSG and unlink the partial file rather than keep bytes it
// could not verify.
func TestPutfilesumRejectsBadDigest(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	data := []byte("these bytes will not match the digest")
	wrong := bytes.Repeat([]byte{0xab}, 32)

	// A caching client looks while the body is on its way: the file is
	// there, and it is told a version of it.
	holder := ts.client(t, "owner.sim")
	var seen vfs.Lease
	body := readerFunc(func(p []byte) (int, error) {
		if seen.ID == 0 {
			var err error
			if seen, err = holder.Lease("/poison"); err != nil {
				return 0, err
			}
			if _, err := holder.Stat("/poison"); err != nil {
				return 0, fmt.Errorf("file not visible during the transfer: %w", err)
			}
		}
		return copy(p, data), io.EOF
	})
	err := c.putStream(
		&proto.Request{Verb: "putfilesum", Path: "/poison", Mode: 0o644,
			Length: int64(len(data)), Algo: "sha256"},
		int64(len(data)), body,
		func(dst []byte) []byte {
			return append(proto.AppendDigestTrailer(dst, "sha256", wrong), '\n')
		})
	if vfs.AsErrno(err) != vfs.EBADMSG {
		t.Fatalf("bad-digest put = %v, want EBADMSG", err)
	}
	if _, err := c.Stat("/poison"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("server kept unverified file: stat = %v, want ENOENT", err)
	}
	if after, err := holder.Lease("/poison"); err != nil || after.Version == seen.Version {
		t.Errorf("the file was removed again and its version stayed %d (%v): the holder would keep it forever", seen.Version, err)
	}
	// The connection survives the rejection: the stream is still framed.
	if err := vfs.WriteFile(c, "/after", []byte("ok"), 0o644); err != nil {
		t.Fatalf("connection unusable after rejected put: %v", err)
	}
}

// TestVerifiedPutErrnoClean checks that a verified put of an
// out-of-tree path fails with the server's errno, not a stream desync:
// phase one of putfilesum reports errors before the body moves.
func TestVerifiedPutErrnoClean(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.verifyClient(t, "owner.sim")
	err := vfs.PutReader(c, "/no/such/dir/f", 0o644, 4, bytes.NewReader([]byte("data")))
	if vfs.AsErrno(err) != vfs.ENOENT {
		t.Fatalf("put into missing dir = %v, want ENOENT", err)
	}
	if errors.Is(err, vfs.ErrIntegrity) {
		t.Error("plain ENOENT dressed up as an integrity failure")
	}
	// And the client did not misread the error as a digest downgrade.
	if !c.supports(proto.Sums) {
		t.Error("errno response marked server digest-incapable")
	}
}

// TestChecksumPooled exercises the pool's Checksum passthrough.
func TestChecksumPooled(t *testing.T) {
	ts := startServer(t, nil)
	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	data := []byte("pooled digest")
	if err := vfs.WriteFile(p, "/p", data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := p.Checksum("/p", "sha256")
	if err != nil {
		t.Fatal(err)
	}
	if want := localDigest(t, data, "sha256"); sum != want {
		t.Errorf("pooled checksum = %s, want %s", sum, want)
	}
}

// TestChecksumAllFiles keeps the digest verbs honest across sizes that
// straddle the bulk-path buffer boundaries.
func TestVerifiedSizes(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.verifyClient(t, "owner.sim")
	for _, size := range []int{0, 1, 4095, 4096, 4097, 1 << 20} {
		p := fmt.Sprintf("/s%d", size)
		data := bytes.Repeat([]byte{byte(size % 251)}, size)
		if err := vfs.PutReader(c, p, 0o644, int64(size), bytes.NewReader(data)); err != nil {
			t.Fatalf("put %d bytes: %v", size, err)
		}
		var got bytes.Buffer
		if _, err := c.GetFile(p, &got); err != nil {
			t.Fatalf("get %d bytes: %v", size, err)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("%d-byte round trip mismatch", size)
		}
	}
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
