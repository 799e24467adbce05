package vfs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestCapabilitiesFallbackProbesInterfaces(t *testing.T) {
	lfs := newLocal(t)
	caps := Capabilities(lfs)
	if caps.OpenStater != nil || caps.FileGetter != nil || caps.FilePutter != nil ||
		caps.Reconnector != nil || caps.Closer != nil {
		t.Errorf("LocalFS advertises capabilities it does not implement: %+v", caps)
	}
}

// capFS exercises the Capabler override: it reports a FileGetter even
// though the concrete type would not assert to one, and hides a
// Reconnector it does implement.
type capFS struct {
	FileSystem
	getter FileGetter
}

func (c capFS) Reconnect() error { return nil }

func (c capFS) Capabilities() Capability {
	return Capability{FileGetter: c.getter}
}

type stringGetter string

func (s stringGetter) GetFile(path string, w io.Writer) (int64, error) {
	n, err := io.WriteString(w, string(s))
	return int64(n), err
}

func TestCapablerOverridesAssertions(t *testing.T) {
	fs := capFS{FileSystem: newLocal(t), getter: stringGetter("fast")}
	caps := Capabilities(fs)
	if caps.FileGetter == nil {
		t.Fatal("Capabler-reported FileGetter not honored")
	}
	if caps.Reconnector != nil {
		t.Fatal("Capabler answer must be authoritative: hidden Reconnector leaked")
	}
	data, err := GetWholeFile(fs, "/whatever")
	if err != nil || string(data) != "fast" {
		t.Fatalf("GetWholeFile = (%q, %v), want fast path", data, err)
	}
}

// putterFS counts fast-path stores.
type putterFS struct {
	FileSystem
	puts int
}

func (p *putterFS) PutFile(path string, mode uint32, size int64, r io.Reader) error {
	p.puts++
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	return WriteFile(p.FileSystem, path, data, mode)
}

func TestPutReaderFastPath(t *testing.T) {
	p := &putterFS{FileSystem: newLocal(t)}
	body := strings.Repeat("payload ", 100)
	if err := PutReader(p, "/f", 0o644, int64(len(body)), strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if p.puts != 1 {
		t.Errorf("fast path used %d times, want 1", p.puts)
	}
	got, err := ReadFile(p.FileSystem, "/f")
	if err != nil || string(got) != body {
		t.Fatalf("stored %q, want %q (err %v)", got, body, err)
	}
}

func TestPutReaderFallback(t *testing.T) {
	lfs := newLocal(t)
	// Larger than the internal 256 KiB copy buffer to cover the loop.
	body := bytes.Repeat([]byte("0123456789abcdef"), 20<<10) // 320 KiB
	if err := PutReader(lfs, "/big", 0o644, int64(len(body)), bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(lfs, "/big")
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("fallback stored %d bytes, want %d (err %v)", len(got), len(body), err)
	}
	// Short reader: the promised size cannot be satisfied.
	if err := PutReader(lfs, "/short", 0o644, 100, strings.NewReader("x")); err == nil {
		t.Fatal("short reader must fail")
	}
}

func TestSubtreeForwardsInnerCapabilities(t *testing.T) {
	p := &putterFS{FileSystem: newLocal(t)}
	if err := MkdirAll(p.FileSystem, "/vol", 0o755); err != nil {
		t.Fatal(err)
	}
	view, err := Subtree(p, "/vol")
	if err != nil {
		t.Fatal(err)
	}
	caps := Capabilities(view)
	if caps.FilePutter == nil {
		t.Fatal("subtree must forward the inner FilePutter")
	}
	if caps.Reconnector != nil || caps.Closer != nil {
		t.Fatal("subtree must not invent capabilities the inner FS lacks")
	}
	body := "through the view"
	if err := PutReader(view, "/f", 0o644, int64(len(body)), strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if p.puts != 1 {
		t.Errorf("fast path used %d times through subtree, want 1", p.puts)
	}
	// The path was translated into the subtree.
	got, err := ReadFile(p.FileSystem, "/vol/f")
	if err != nil || string(got) != body {
		t.Fatalf("stored at %q = %q, want %q (err %v)", "/vol/f", got, body, err)
	}
}

// wrappedLink forwards a Reconnector the way layered filesystems do —
// through Capabilities, with no Reconnect method of its own.
type wrappedLink struct {
	FileSystem
	link *countingLink
}

type countingLink struct{ reconnects int }

func (l *countingLink) Reconnect() error { l.reconnects++; return nil }

func (w wrappedLink) Capabilities() Capability { return Capability{Reconnector: w.link} }

// A subtree view reconnects what its inner layer reports it can
// reconnect, not only what the inner type happens to assert to: a
// mountlist target over a cached or instrumented mount must recover.
func TestSubtreeReconnectsThroughTheProbe(t *testing.T) {
	inner := wrappedLink{FileSystem: newLocal(t), link: &countingLink{}}
	view, err := Subtree(inner, "/")
	if err != nil {
		t.Fatal(err)
	}
	rc := Capabilities(view).Reconnector
	if rc == nil {
		t.Fatal("subtree hides the inner Reconnector")
	}
	if err := rc.Reconnect(); err != nil || inner.link.reconnects != 1 {
		t.Errorf("Reconnect through the view: %v, inner reconnected %d times, want 1", err, inner.link.reconnects)
	}
	if err := ReconnectAll(nil, newLocal(t), view); err != nil || inner.link.reconnects != 2 {
		t.Errorf("ReconnectAll skipping a nil and a local filesystem: %v, inner reconnected %d times, want 2", err, inner.link.reconnects)
	}
}
