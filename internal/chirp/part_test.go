package chirp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/faultfs"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// partPayload builds a deterministic test body.
func partPayload(size int) []byte {
	rng := rand.New(rand.NewSource(int64(size) ^ 0x9e37))
	p := make([]byte, size)
	rng.Read(p)
	return p
}

// localEndpoint wraps a temp-dir file as a copy-engine endpoint.
func localEndpoint(t *testing.T, name string, data []byte) vfs.Loc {
	t.Helper()
	dir := t.TempDir()
	if data != nil {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := vfs.NewLocalFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return vfs.Loc{FS: fs, Path: "/" + name}
}

// TestPartVerbsRoundTrip drives the raw multipart verbs: begin, two
// digested chunks, a composed-sum completion, then offset reads with
// per-chunk digest trailers.
func TestPartVerbsRoundTrip(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	data := partPayload(100_000)
	half := int64(len(data) / 2)

	if err := c.PutBegin("/mp", 0o644, int64(len(data))); err != nil {
		t.Fatalf("putbegin: %v", err)
	}
	// Chunks written out of order: offset addressing must not care.
	sum2, err := c.PutPart("/mp", half, int64(len(data))-half, "crc32c", bytes.NewReader(data[half:]))
	if err != nil {
		t.Fatalf("putpart 2: %v", err)
	}
	sum1, err := c.PutPart("/mp", 0, half, "crc32c", bytes.NewReader(data[:half]))
	if err != nil {
		t.Fatalf("putpart 1: %v", err)
	}
	c1, err := vfs.ParseCRC32C(sum1)
	if err != nil {
		t.Fatalf("chunk sum 1 unparseable: %v", err)
	}
	c2, err := vfs.ParseCRC32C(sum2)
	if err != nil {
		t.Fatalf("chunk sum 2 unparseable: %v", err)
	}
	composed := vfs.CombineCRC32C(c1, c2, int64(len(data))-half)
	if composed != vfs.CRC32C(0, data) {
		t.Fatal("server chunk digests do not compose to the whole-file digest")
	}
	if err := c.PutComplete("/mp", int64(len(data)), "crc32c", vfs.FormatCRC32C(composed)); err != nil {
		t.Fatalf("putcomplete: %v", err)
	}

	var got bytes.Buffer
	n, sum, err := c.GetPart("/mp", half, int64(len(data))-half, "crc32c", &got)
	if err != nil {
		t.Fatalf("getpart: %v", err)
	}
	if n != int64(len(data))-half || !bytes.Equal(got.Bytes(), data[half:]) {
		t.Fatalf("getpart returned %d bytes, mismatch=%v", n, !bytes.Equal(got.Bytes(), data[half:]))
	}
	if sum != sum2 {
		t.Errorf("getpart digest %s, want %s", sum, sum2)
	}
	// Reads past EOF clamp; a zero-length probe succeeds with no body.
	if n, _, err := c.GetPart("/mp", int64(len(data))+5, 10, "", &bytes.Buffer{}); err != nil || n != 0 {
		t.Errorf("past-EOF getpart = (%d, %v), want (0, nil)", n, err)
	}
	if _, _, err := c.GetPart("/mp", 0, 0, "", &bytes.Buffer{}); err != nil {
		t.Errorf("zero-length probe getpart = %v", err)
	}
}

// TestMultipartCopyThroughPool runs the full engine both directions
// through a pooled transport, verified, with chunk sizes that force
// many parts.
func TestMultipartCopyThroughPool(t *testing.T) {
	ts := startServer(t, nil)
	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	data := partPayload(300_000)
	opts := vfs.CopyOptions{Concurrency: 4, ChunkSize: 64 << 10, Verify: true}

	src := localEndpoint(t, "up.bin", data)
	n, err := vfs.Copy(context.Background(), vfs.Loc{FS: p, Path: "/up"}, src, opts)
	if err != nil {
		t.Fatalf("multipart put: %v", err)
	}
	if n != int64(len(data)) {
		t.Errorf("put copied %d, want %d", n, len(data))
	}

	dst := localEndpoint(t, "down.bin", nil)
	n, err = vfs.Copy(context.Background(), dst, vfs.Loc{FS: p, Path: "/up"}, opts)
	if err != nil {
		t.Fatalf("multipart get: %v", err)
	}
	if n != int64(len(data)) {
		t.Errorf("get copied %d, want %d", n, len(data))
	}
	got, err := vfs.ReadFile(dst.FS, dst.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip through pooled multipart corrupted the payload")
	}
}

// TestMultipartSingleMemberPool degrades gracefully: one pooled
// connection serializes the chunks but the transfer still completes.
func TestMultipartSingleMemberPool(t *testing.T) {
	ts := startServer(t, nil)
	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		PoolSize:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	data := partPayload(200_000)
	src := localEndpoint(t, "one.bin", data)
	if _, err := vfs.Copy(context.Background(), vfs.Loc{FS: p, Path: "/one"}, src,
		vfs.CopyOptions{Concurrency: 4, ChunkSize: 32 << 10, Verify: true}); err != nil {
		t.Fatalf("multipart over single-member pool: %v", err)
	}
	var got bytes.Buffer
	if _, err := p.GetFile("/one", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("payload mismatch after single-member multipart")
	}
}

// TestPutpartRejectsBadDigest sends a chunk whose trailer lies about
// the body. The server must answer EBADMSG, zero the chunk's range
// (restoring the pre-sized hole — zero wrong bytes at rest), keep the
// file, and keep the connection framed.
func TestPutpartRejectsBadDigest(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	good := partPayload(4096)
	evil := partPayload(512)

	if err := c.PutBegin("/chunked", 0o644, int64(len(good))+int64(len(evil))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutPart("/chunked", 0, int64(len(good)), "crc32c", bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Repeat([]byte{0xee}, 4)
	err := c.putStream(
		&proto.Request{Verb: "putpart", Path: "/chunked", Offset: int64(len(good)),
			Length: int64(len(evil)), Algo: "crc32c"},
		int64(len(evil)), bytes.NewReader(evil),
		func(dst []byte) []byte {
			return append(proto.AppendDigestTrailer(dst, "crc32c", wrong), '\n')
		})
	if vfs.AsErrno(err) != vfs.EBADMSG {
		t.Fatalf("bad-digest putpart = %v, want EBADMSG", err)
	}

	var got bytes.Buffer
	if _, err := c.GetFile("/chunked", &got); err != nil {
		t.Fatalf("connection unusable after rejected chunk: %v", err)
	}
	want := append(append([]byte{}, good...), make([]byte, len(evil))...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("rejected chunk left non-zero bytes (verified chunk or hole damaged)")
	}
}

// TestPutcompleteRejectsBadSum asserts the composed-digest check: a
// completion whose whole-file sum does not match removes the file and
// reports an integrity error.
func TestPutcompleteRejectsBadSum(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	data := partPayload(8192)

	if err := c.PutBegin("/torn", 0o644, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutPart("/torn", 0, int64(len(data)), "crc32c", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// The client translates the server's EBADMSG into an integrity
	// error, the classification the engine's retry logic keys on.
	err := c.PutComplete("/torn", int64(len(data)), "crc32c", "deadbeef")
	if !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("bad composed sum = %v, want integrity error", err)
	}
	if _, err := c.Stat("/torn"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("server kept unverifiable multipart file: stat = %v, want ENOENT", err)
	}
	// A size mismatch (chunk never arrived) is equally fatal.
	if err := c.PutBegin("/short", 0o644, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.PutComplete("/short", 200, "", ""); !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("size-mismatch putcomplete = %v, want integrity error", err)
	}
	if _, err := c.Stat("/short"); vfs.AsErrno(err) != vfs.ENOENT {
		t.Errorf("server kept short multipart file: stat = %v, want ENOENT", err)
	}
}

// TestPartMetricsFromBoot pins the no-lazy-registration contract: the
// histograms and fastpath counter for the multipart verbs exist in the
// registry snapshot from server and client construction, before any
// part RPC has been issued.
func TestPartMetricsFromBoot(t *testing.T) {
	sreg := obs.NewRegistry()
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "fs.sim",
		Owner:     "hostname:owner.sim",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		Metrics:   sreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	l, err := nw.Listen("fs.sim")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer l.Close()

	creg := obs.NewRegistry()
	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return nw.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
		Metrics:     creg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ssnap, csnap := sreg.Snapshot(), creg.Snapshot()
	for _, verb := range []string{"putbegin", "putpart", "putcomplete", "getpart"} {
		if _, ok := ssnap.Histograms["chirp_server.rpc."+verb]; !ok {
			t.Errorf("server histogram for %s absent before first call", verb)
		}
		if _, ok := csnap.Histograms["chirp_client.rpc."+verb]; !ok {
			t.Errorf("client histogram for %s absent before first call", verb)
		}
	}
	if _, ok := ssnap.Counters["chirp_server.multipart_fastpath"]; !ok {
		t.Error("multipart_fastpath counter absent before first call")
	}

	// And the observations land in the pre-registered metrics.
	if err := c.PutBegin("/m", 0o644, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutPart("/m", 0, 4, "", bytes.NewReader([]byte("abcd"))); err != nil {
		t.Fatal(err)
	}
	if err := c.PutComplete("/m", 4, "", ""); err != nil {
		t.Fatal(err)
	}
	snap := sreg.Snapshot()
	for _, verb := range []string{"putbegin", "putpart", "putcomplete"} {
		if snap.Histograms["chirp_server.rpc."+verb].Count == 0 {
			t.Errorf("server %s RPC not observed", verb)
		}
	}
}

// TestMultipartFastpathOverTCP checks that undigested chunk transfers
// over real TCP engage the zero-copy part fast path in both directions.
func TestMultipartFastpathOverTCP(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "localhost",
		Owner:     "hostname:localhost",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	c, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := partPayload(1<<20 + 3)
	half := int64(len(data) / 2)
	if err := c.PutBegin("/fast", 0o644, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutPart("/fast", 0, half, "", bytes.NewReader(data[:half])); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutPart("/fast", half, int64(len(data))-half, "", bytes.NewReader(data[half:])); err != nil {
		t.Fatal(err)
	}
	if err := c.PutComplete("/fast", int64(len(data)), "", ""); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for off := int64(0); off < int64(len(data)); off += half {
		n := half
		if int64(len(data))-off < n {
			n = int64(len(data)) - off
		}
		if _, _, err := c.GetPart("/fast", off, n, "", &got); err != nil {
			t.Fatalf("getpart at %d: %v", off, err)
		}
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("fast-path round trip corrupted the payload")
	}
	if fast := reg.Snapshot().Counters["chirp_server.multipart_fastpath"]; fast < 4 {
		t.Errorf("multipart fast path engaged %d times, want >= 4 (2 putpart + 2 getpart)", fast)
	}
}

// TestMultipartTornChunkTimeline replays the canonical multipart
// failure on a deterministic fault timeline: a torn-write window tears
// the tail off chunks written during step 0. Per-chunk digests pass
// (the tear is silent), so only the composed whole-file digest at
// putcomplete can catch it. The transfer must fail with an integrity
// error, leave no partial file on the server, and succeed when re-run
// after the window closes.
func TestMultipartTornChunkTimeline(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	ffs := faultfs.New(c)
	var step atomic.Int64
	ffs.SetClock(step.Load)
	ffs.TornDuring(faultfs.Window{From: 0, To: 1}, 64)

	data := partPayload(96 << 10)
	src := localEndpoint(t, "torn.bin", data)
	opts := vfs.CopyOptions{Concurrency: 2, ChunkSize: 32 << 10, Verify: true}

	_, err := vfs.Copy(context.Background(), vfs.Loc{FS: ffs, Path: "/torn"}, src, opts)
	if !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("torn multipart = %v, want integrity error", err)
	}
	if _, serr := c.Stat("/torn"); vfs.AsErrno(serr) != vfs.ENOENT {
		t.Fatalf("partial multipart state survived: stat = %v, want ENOENT", serr)
	}

	// The window closes; the identical transfer now succeeds.
	step.Store(1)
	n, err := vfs.Copy(context.Background(), vfs.Loc{FS: ffs, Path: "/torn"}, src, opts)
	if err != nil {
		t.Fatalf("retry after torn window: %v", err)
	}
	if n != int64(len(data)) {
		t.Errorf("retry copied %d, want %d", n, len(data))
	}
	sum, err := c.Checksum("/torn", "crc32c")
	if err != nil {
		t.Fatal(err)
	}
	if want := vfs.FormatCRC32C(vfs.CRC32C(0, data)); sum != want {
		t.Errorf("server digest %s, want %s", sum, want)
	}
}

// TestMultipartCorruptReadTimeline corrupts chunk reads during the
// transfer window only: the engine's composed digest disagrees with
// the source's post-window authoritative digest, the copy fails, and
// no wrong bytes survive at the destination. Re-run clean, it
// succeeds bit-exact.
func TestMultipartCorruptReadTimeline(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	data := partPayload(128 << 10)
	if err := vfs.WriteFile(c, "/src", data, 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(c)
	var step atomic.Int64
	ffs.SetClock(step.Load)
	ffs.CorruptDuring(faultfs.Window{From: 0, To: 1}, 0.001, 99)

	dst := localEndpoint(t, "out.bin", nil)
	total := int64(len(data))
	opts := vfs.CopyOptions{
		Concurrency: 2,
		ChunkSize:   32 << 10,
		Verify:      true,
		// Once every chunk has landed, close the corruption window so the
		// completion-time source digest reflects the true bytes.
		Progress: func(copied, t int64) {
			if copied == total {
				step.Store(1)
			}
		},
	}
	_, err := vfs.Copy(context.Background(), dst, vfs.Loc{FS: ffs, Path: "/src"}, opts)
	if !errors.Is(err, vfs.ErrIntegrity) {
		t.Fatalf("corrupted multipart read = %v, want integrity error", err)
	}
	if ffs.Flips() == 0 {
		t.Fatal("fault injection never corrupted a byte; test proves nothing")
	}
	if _, serr := dst.FS.Stat(dst.Path); vfs.AsErrno(serr) != vfs.ENOENT {
		t.Fatalf("corrupted destination survived: stat = %v, want ENOENT", serr)
	}

	if _, err := vfs.Copy(context.Background(), dst, vfs.Loc{FS: ffs, Path: "/src"}, opts); err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	got, err := vfs.ReadFile(dst.FS, dst.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retry delivered wrong bytes")
	}
}

// TestMultipartManyChunksPooled is a broader soak: chunk count well
// above the worker count, odd tail, out-of-order completion under
// concurrency.
func TestMultipartManyChunksPooled(t *testing.T) {
	ts := startServer(t, nil)
	p, err := NewPool(ClientConfig{
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     10 * time.Second,
		PoolSize:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, size := range []int{16<<10*2 - 1, 16 << 10 * 7, 16<<10*11 + 13} {
		data := partPayload(size)
		src := localEndpoint(t, "soak.bin", data)
		path := fmt.Sprintf("/soak%d", i)
		if _, err := vfs.Copy(context.Background(), vfs.Loc{FS: p, Path: path}, src,
			vfs.CopyOptions{Concurrency: 3, ChunkSize: 16 << 10, Verify: true}); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		sum, err := p.Checksum(path, "crc32c")
		if err != nil {
			t.Fatal(err)
		}
		if want := vfs.FormatCRC32C(vfs.CRC32C(0, data)); sum != want {
			t.Errorf("size %d: server digest %s, want %s", size, sum, want)
		}
	}
}
