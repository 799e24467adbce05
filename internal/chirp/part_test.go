package chirp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tss/internal/auth"
	"tss/internal/chirp/proto"
	"tss/internal/faultfs"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/resilient"
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
	p, err := Dial(ClientConfig{
		// A 100 Mb/s link keeps each part in flight for milliseconds, so
		// the workers overlap; over loopback one could finish its part
		// before the next asked for a connection.
		Dial: func() (net.Conn, error) {
			return ts.net.DialFrom("owner.sim", "fs.sim", netsim.Fast100)
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
	// Four workers with parts in flight at once must spread over pool
	// members, not queue on one connection.
	if got := p.Conns(); got < 2 {
		t.Errorf("4-way put used %d pooled connection(s), want >= 2", got)
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
	p, err := Dial(ClientConfig{
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
	p, err := Dial(ClientConfig{
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

// tcpPool starts a server on loopback TCP — a transport with
// backpressure, unlike netsim, whose queue would hold a body whole —
// and dials a pool of the given size to it, its clients counting into
// reg when there is one.
func tcpPool(t *testing.T, size int, reg *obs.Registry) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(t.TempDir(), ServerConfig{
		Name:      "localhost",
		Owner:     "hostname:localhost",
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	p, err := Dial(ClientConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     10 * time.Second,
		PoolSize:    size,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return srv, p
}

// TestMultipartBoundedMemory pins what a multipart transfer holds: one
// window per worker, whatever the chunk size. A verified 16 MiB put and
// get — client, server and both local files in this process — each
// allocate well under one chunk once connections are dialed and the
// window pool is warm.
func TestMultipartBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the bound leans on a warm sync.Pool, which the race detector empties at random")
	}
	_, p := tcpPool(t, 2, nil)
	const size = 16 << 20
	up := localEndpoint(t, "up.bin", partPayload(size))
	down := localEndpoint(t, "down.bin", nil)
	remote := vfs.Loc{FS: p, Path: "/mem"}
	for _, chunk := range []int64{4 << 20, 8 << 20} {
		opts := vfs.CopyOptions{Concurrency: 2, ChunkSize: chunk, Verify: true}
		steps := []struct {
			name     string
			dst, src vfs.Loc
		}{{"put", remote, up}, {"get", down, remote}}
		for round := 0; round < 2; round++ { // the first round warms
			for _, s := range steps {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				n, err := vfs.Copy(context.Background(), s.dst, s.src, opts)
				runtime.ReadMemStats(&after)
				if err != nil || n != size {
					t.Fatalf("%s at chunk %d: %d bytes, %v", s.name, chunk, n, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; round > 0 && got > 512<<10 {
					t.Errorf("%s at chunk %d allocated %d KiB, want at most 512", s.name, chunk, got>>10)
				}
			}
		}
	}
}

// TestMultipartContentAllPairings moves the same bytes through every
// pairing of ends the engine distinguishes — memory → remote, local →
// remote, remote → remote, remote → local, local → local — at sizes on
// either side of a window and of a chunk, verified and not, and compares
// what arrived after every hop.
func TestMultipartContentAllPairings(t *testing.T) {
	ts := startServer(t, nil)
	p := ts.pool(t, "owner.sim", 4)
	const chunk = 300_000 // more than a window: a chunk takes two
	remote := func(path string) []byte {
		var b bytes.Buffer
		if _, err := p.GetFile(path, &b); err != nil {
			t.Fatalf("getfile %s: %v", path, err)
		}
		return b.Bytes()
	}
	local := func(l vfs.Loc) []byte {
		b, err := vfs.ReadFile(l.FS, l.Path)
		if err != nil {
			t.Fatalf("read %s: %v", l.Path, err)
		}
		return b
	}
	for _, verify := range []bool{false, true} {
		for _, size := range []int{0, 1, vfs.Window - 1, vfs.Window + 1, 2*chunk + 123} {
			data := partPayload(size)
			opts := vfs.CopyOptions{Concurrency: 2, ChunkSize: chunk, Verify: verify}
			l0 := localEndpoint(t, "l0.bin", data)
			l1 := localEndpoint(t, "l1.bin", nil)
			l2 := localEndpoint(t, "l2.bin", nil)
			ra, rb, rc := vfs.Loc{FS: p, Path: "/a"}, vfs.Loc{FS: p, Path: "/b"}, vfs.Loc{FS: p, Path: "/c"}
			hops := []struct {
				name     string
				dst, src vfs.Loc
				landed   func() []byte
			}{
				{"local to remote", ra, l0, func() []byte { return remote("/a") }},
				{"remote to remote", rb, ra, func() []byte { return remote("/b") }},
				{"remote to local", l1, rb, func() []byte { return local(l1) }},
				{"local to local", l2, l1, func() []byte { return local(l2) }},
			}
			for _, h := range hops {
				n, err := vfs.Copy(context.Background(), h.dst, h.src, opts)
				if err != nil || n != int64(size) {
					t.Fatalf("%s, %d bytes, verify=%v: copied %d, %v", h.name, size, verify, n, err)
				}
				if !bytes.Equal(h.landed(), data) {
					t.Fatalf("%s, %d bytes, verify=%v: content differs", h.name, size, verify)
				}
			}
			if err := vfs.PutBytes(context.Background(), rc, 0o644, data, opts); err != nil {
				t.Fatalf("memory to remote, %d bytes, verify=%v: %v", size, verify, err)
			}
			if !bytes.Equal(remote("/c"), data) {
				t.Fatalf("memory to remote, %d bytes, verify=%v: content differs", size, verify)
			}
		}
	}
}

// TestMultipartSharedConnection copies between two paths of one server
// over a single connection with two workers. A getpart and a putpart of
// one transfer must never need the connection at the same time: the
// engine fetches a chunk, then sends it.
func TestMultipartSharedConnection(t *testing.T) {
	ts := startServer(t, nil)
	c := ts.client(t, "owner.sim")
	data := partPayload(3*vfs.Window + 5)
	if err := vfs.WriteFile(c, "/from", data, 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := vfs.Copy(context.Background(), vfs.Loc{FS: c, Path: "/to"}, vfs.Loc{FS: c, Path: "/from"},
			vfs.CopyOptions{Concurrency: 2, ChunkSize: 1 << 20, Cutover: 1, Verify: true})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a chunk's getpart and putpart wait for each other on the one connection")
	}
	got, err := vfs.ReadFile(c, "/to")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("copy over one connection differs from its source (%v)", err)
	}
}

// fullDisk is a local destination whose files accept room bytes in all
// and then fail with ENOSPC.
type fullDisk struct {
	vfs.FileSystem
	room atomic.Int64
}

func (d *fullDisk) Open(path string, flags int, mode uint32) (vfs.File, error) {
	f, err := d.FileSystem.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return &fullDiskFile{File: f, d: d}, nil
}

type fullDiskFile struct {
	vfs.File
	d *fullDisk
}

func (f *fullDiskFile) Pwrite(p []byte, off int64) (int, error) {
	if f.d.room.Add(-int64(len(p))) < 0 {
		return 0, vfs.ENOSPC
	}
	return f.File.Pwrite(p, off)
}

// TestMultipartLocalWriteError fills the local disk in the middle of a
// chunk of a get, under a retry policy. The transfer fails with the
// write's own errno after one attempt, the partial destination is
// removed, and the pool still has the connections it had: the getpart
// bodies were drained, not abandoned.
func TestMultipartLocalWriteError(t *testing.T) {
	reg := obs.NewRegistry()
	_, p := tcpPool(t, 2, reg)
	data := partPayload(4 << 20)
	if err := vfs.PutBytes(context.Background(), vfs.Loc{FS: p, Path: "/big"}, 0o644, data,
		vfs.CopyOptions{Concurrency: 2, ChunkSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	conns := p.Conns()
	dst := localEndpoint(t, "out.bin", nil)
	disk := &fullDisk{FileSystem: dst.FS}
	disk.room.Store(1<<20 + vfs.Window + 100) // gives out inside a chunk, past its first window
	var retries atomic.Int64
	_, err := vfs.Copy(context.Background(), vfs.Loc{FS: disk, Path: dst.Path}, vfs.Loc{FS: p, Path: "/big"},
		vfs.CopyOptions{Concurrency: 2, ChunkSize: 1 << 20, Verify: true,
			Retry: resilient.Policy{Attempts: 3, Base: time.Millisecond, Sleep: func(time.Duration) {},
				OnRetry: func(int, error) { retries.Add(1) }}})
	if vfs.AsErrno(err) != vfs.ENOSPC {
		t.Fatalf("get onto a full disk = %v, want ENOSPC", err)
	}
	if n := retries.Load(); n != 0 {
		t.Errorf("a full disk was retried %d times", n)
	}
	if _, serr := dst.FS.Stat(dst.Path); vfs.AsErrno(serr) != vfs.ENOENT {
		t.Errorf("partial destination left behind (stat = %v)", serr)
	}
	if got := p.Conns(); got != conns {
		t.Errorf("pool has %d live connections after the failure, had %d", got, conns)
	}
	if n := reg.Snapshot().Counters["chirp_client.reconnects"]; n != 0 {
		t.Errorf("%d reconnects after a local write error", n)
	}
	sum, err := p.Checksum("/big", "crc32c")
	if err != nil || sum != vfs.FormatCRC32C(vfs.CRC32C(0, data)) {
		t.Errorf("pool unusable after the failure: checksum = %q, %v", sum, err)
	}
}

// failAfter is a sink that accepts room bytes and then fails with err.
type failAfter struct {
	room int
	err  error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, w.err
	}
	w.room -= len(p)
	return len(p), nil
}

// TestGetfileSinkErrorKeepsConnection fails the caller's writer in the
// middle of a getfile, a getfilesum and a getpart body. That is the
// sink's failure, not the connection's: the caller sees the sink's
// errno, a retry driver does not re-run the transfer, the stream stays
// framed — the next RPC on the same connection works — and a descriptor
// opened before is still good.
func TestGetfileSinkErrorKeepsConnection(t *testing.T) {
	ts := startServer(t, nil)
	data := partPayload(3*vfs.Window + 17)
	receive := map[string]func(c *Client, w io.Writer) error{
		"getfile":    func(c *Client, w io.Writer) error { _, err := c.getFilePlain("/body", w); return err },
		"getfilesum": func(c *Client, w io.Writer) error { _, err := c.GetFile("/body", w); return err },
		"getpart": func(c *Client, w io.Writer) error {
			_, _, err := c.GetPart("/body", 5, int64(len(data))-5, "crc32c", w)
			return err
		},
	}
	for verb, get := range receive {
		for _, room := range []int{0, 1000, vfs.Window + 1} {
			c := ts.verifyClient(t, "owner.sim")
			if err := vfs.WriteFile(c, "/body", data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := c.Open("/body", vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			runs := 0
			err = resilient.Policy{Attempts: 3, Base: time.Millisecond, Sleep: func(time.Duration) {}}.Run(c,
				func() error {
					runs++
					return get(c, &failAfter{room: room, err: vfs.ENOSPC})
				}, nil)
			if vfs.AsErrno(err) != vfs.ENOSPC || errors.Is(err, vfs.ErrIntegrity) {
				t.Errorf("%s, sink full after %d bytes: %v, want ENOSPC", verb, room, err)
			}
			if runs != 1 {
				t.Errorf("%s, sink full after %d bytes: ran %d times, want 1", verb, room, runs)
			}
			if _, err := c.Stat("/body"); err != nil {
				t.Errorf("%s, sink full after %d bytes: next RPC = %v", verb, room, err)
			}
			if got := preadAll(t, f, 16); !bytes.Equal(got, data[:16]) {
				t.Errorf("%s, sink full after %d bytes: descriptor opened before reads %x", verb, room, got)
			}
			var whole bytes.Buffer
			if err := get(c, &whole); err != nil {
				t.Errorf("%s after a failed sink: %v", verb, err)
			}
		}
	}
}
