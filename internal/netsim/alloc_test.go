package netsim

import (
	"io"
	"testing"
	"time"
)

// TestLinkAllocationGuards pins what the simulator adds to the stack it
// carries: nothing. A write and its read reuse the queue's storage, and
// a read that parks under a deadline — as every chirp RPC's reply wait
// does — re-uses the direction's one timer instead of arming a new one.
func TestLinkAllocationGuards(t *testing.T) {
	a, b := Pipe(Loopback)
	defer a.Close()
	defer b.Close()
	msg := make([]byte, 512)
	buf := make([]byte, len(msg))
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a write and its read allocate %.1f/op, want 0", n)
	}

	// An echo peer answers each request. AllocsPerRun runs on one
	// processor, so the requester parks in its read (empty queue, a 30 s
	// deadline ahead) before the peer runs and feeds it.
	go echo(b, len(msg))
	if n := testing.AllocsPerRun(1000, func() {
		a.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a round trip whose reply wait parks under a deadline allocates %.1f/op, want 0", n)
	}

	// Over Fast100 each read waits about 100 µs for its bytes, so both
	// ends take the precise sleep.
	c, d := Pipe(Fast100)
	defer c.Close()
	defer d.Close()
	go echo(d, len(msg))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a Fast100 round trip, which sleeps until its bytes are due, allocates %.1f/op, want 0", n)
	}
}

// echo writes back each size-byte request read from c until c fails.
func echo(c *Conn, size int) {
	req := make([]byte, size)
	for {
		if _, err := io.ReadFull(c, req); err != nil {
			return
		}
		if _, err := c.Write(req); err != nil {
			return
		}
	}
}

// TestLinkMemoryBounded streams 64 MiB in 256 KiB writes over a GigE
// link to a reader that lags four writes behind, so the queue never
// drains until the end. Its storage must follow the bytes in flight,
// not the bytes ever written, and a drained queue gives it back.
func TestLinkMemoryBounded(t *testing.T) {
	const (
		total = 64 << 20
		write = 256 << 10
		lag   = 4
	)
	a, b := Pipe(GigE)
	defer a.Close()
	defer b.Close()
	q := a.send
	var peak int
	check := func() {
		t.Helper()
		q.mu.Lock()
		inFlight, capacity := len(q.buf)-q.off, cap(q.buf)
		q.mu.Unlock()
		peak = max(peak, inFlight)
		if capacity > 2*peak {
			t.Fatalf("queue capacity %d with at most %d bytes ever in flight, want <= 2x", capacity, peak)
		}
	}
	msg := make([]byte, write)
	buf := make([]byte, write)
	for sent := 0; sent < total; sent += write {
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		check()
		if sent >= lag*write {
			if _, err := io.ReadFull(b, buf); err != nil {
				t.Fatal(err)
			}
			check()
		}
	}
	for i := 0; i < lag; i++ {
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
		check()
	}
	if peak > (lag+1)*write {
		t.Errorf("%d bytes in flight, want at most %d", peak, (lag+1)*write)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if c := cap(q.buf); c > idleBufCap {
		t.Errorf("drained queue keeps %d bytes of capacity, want at most %d", c, idleBufCap)
	}
}
