package proto

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"tss/internal/vfs"
)

var benchPread = Request{Verb: "pread", FD: 7, Length: 65536, Offset: 1 << 30}

var benchOpen = Request{Verb: "open", Path: "/data/experiment/run-0042/events.dat", Flags: 0x42, Mode: 0o644}

// BenchmarkEncodeDecode measures a full encode/parse round trip of a
// path-carrying request with a recycled encode buffer and Request.
func BenchmarkEncodeDecode(b *testing.B) {
	buf := make([]byte, 0, 128)
	var q Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = benchOpen.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := q.Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreadRoundTrip measures the data-path hot verb: pread
// encode into a recycled buffer plus parse into a recycled Request.
func BenchmarkPreadRoundTrip(b *testing.B) {
	buf := make([]byte, 0, 64)
	var q Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = benchPread.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := q.Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeString is the pre-append encoder kept for comparison:
// Encode allocates a fresh string (and scratch) per call.
func BenchmarkEncodeString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchOpen.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// The append-based encoders are the reason the client and server data
// paths stopped paying an allocation tax per RPC; pin the guarantee so
// a regression fails loudly rather than showing up as GC pressure.
func TestEncodeAllocationGuards(t *testing.T) {
	buf := make([]byte, 0, 256)

	// Integer-only verbs encode with zero heap allocations.
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = benchPread.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pread AppendTo allocates %.1f/op, want 0", n)
	}

	// Clean (escape-free) paths also encode with zero allocations.
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = benchOpen.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("open AppendTo allocates %.1f/op, want 0", n)
	}

	// The string encoder necessarily allocates; the append path must
	// stay strictly cheaper (this is the pre/post comparison pinned).
	encAllocs := testing.AllocsPerRun(200, func() {
		if _, err := benchOpen.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs < 1 {
		t.Fatalf("Encode allocates %.1f/op; comparison baseline lost", encAllocs)
	}

	// Stat marshalling on the server response path: zero with a
	// recycled buffer.
	fi := vfs.FileInfo{Name: "events.dat", Size: 1 << 30, Mode: 0o644, MTime: 1754400000, Inode: 424242}
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendStat(buf[:0], fi)
	}); n != 0 {
		t.Errorf("AppendStat allocates %.1f/op, want 0", n)
	}

	// The parser, as a server session runs it: a line in a reader's
	// buffer, parsed into the session's one Request. An integer-only
	// verb allocates nothing; each string argument is one copy.
	var q Request
	for _, g := range []struct {
		line string
		want float64
	}{
		{"pread 7 65536 1073741824", 0},
		{"deadline 30000", 0},
		{"stat /data/experiment/run-0042/events.dat", 1},
		{"stat /data/experiment/run%200042/events.dat", 1},
	} {
		line := []byte(g.line)
		if n := testing.AllocsPerRun(200, func() {
			if err := q.Parse(line); err != nil {
				t.Fatal(err)
			}
		}); n != g.want {
			t.Errorf("Parse(%q) allocates %.1f/op, want %.0f", g.line, n, g.want)
		}
	}

	// Reply lines parse from a ReadLine view the same way: a status
	// line allocates nothing, a stat line only its name.
	replies := bufio.NewReaderSize(strings.NewReader(""), 256)
	for _, g := range []struct {
		name string
		in   []byte
		want float64
		run  func(r *bufio.Reader) error
	}{
		{"ReadCode", []byte("-13\n"), 0, func(r *bufio.Reader) error { _, err := ReadCode(r); return err }},
		{"UnmarshalStat", append(AppendStat(nil, fi), '\n'), 1, func(r *bufio.Reader) error {
			line, err := ReadLine(r)
			if err == nil {
				_, err = UnmarshalStat(line)
			}
			return err
		}},
	} {
		src := bytes.NewReader(g.in)
		if n := testing.AllocsPerRun(200, func() {
			src.Reset(g.in)
			replies.Reset(src)
			if err := g.run(replies); err != nil {
				t.Fatal(err)
			}
		}); n != g.want {
			t.Errorf("%s allocates %.1f/op, want %.0f", g.name, n, g.want)
		}
	}

	// Escaping only pays when a byte actually needs escaping.
	if n := testing.AllocsPerRun(200, func() {
		if Escape("/plain/path/no-escapes") != "/plain/path/no-escapes" {
			t.Fatal("clean escape changed the string")
		}
	}); n != 0 {
		t.Errorf("clean Escape allocates %.1f/op, want 0", n)
	}
}
