package proto

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tss/internal/token"
)

// FuzzDecodeRequest feeds arbitrary protocol lines to Request.Parse.
// The parser must never panic, and any line it accepts must survive a
// full re-encode/re-parse round trip unchanged: the parsed form is the
// canonical meaning of the request. The line is parsed from a byte
// slice the way a server session parses a ReadLine view, and no field
// may alias it: overwriting the line after the parse must leave the
// request as it was.
func FuzzDecodeRequest(f *testing.F) {
	f.Add("open /etc/motd 2 644")
	f.Add("pread 3 65536 0")
	f.Add("pwrite 3 8 1024")
	f.Add("rename /a%20b %0")
	f.Add("setacl / hostname:*.cse.nd.edu rwla")
	f.Add("putfile /data/blob 755 1048576")
	f.Add("close -1")
	f.Add("whoami")
	f.Add("open %GG 0 0")
	f.Add("stat %2")
	eachSample(func(v *Verb, q *Request) {
		line, err := q.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	})
	f.Fuzz(func(t *testing.T, line string) {
		b := []byte(line)
		var q Request
		if err := q.Parse(b); err != nil {
			return
		}
		enc, err := q.Encode()
		if err != nil {
			t.Fatalf("accepted request %+v does not re-encode: %v", q, err)
		}
		for i := range b {
			b[i] ^= 0xff
		}
		if after, _ := q.Encode(); after != enc {
			t.Fatalf("request aliases its line: overwriting %q changed %q to %q", line, enc, after)
		}
		var q2 Request
		if err := q2.Parse([]byte(enc)); err != nil {
			t.Fatalf("re-encoded line %q does not re-parse: %v", enc, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round trip changed request:\nline   %q\nfirst  %+v\nencode %q\nsecond %+v", line, q, enc, q2)
		}
	})
}

// FuzzEncodeDecode drives the opposite direction: a Request built from
// arbitrary field values must encode to a line that parses back to the
// same canonical encoding, no matter what bytes the path, subject or
// rights carry. This is the injection check — a hostile path must not
// be able to smuggle extra fields or verbs through Escape.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint8(0), "/etc/motd", "", "", "", int64(0), int64(0), int64(0), int64(2), int64(0644), int64(0))
	f.Add(uint8(1), "", "", "", "", int64(3), int64(65536), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(9), "/a b", "/c\td", "", "", int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(17), "/", "", "unix:alice", "rwla", int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(13), "/data/%00", "", "", "", int64(0), int64(9), int64(0), int64(0), int64(0755), int64(0))
	for i := range Verbs {
		f.Add(uint8(i), "/a b", "/c\td", "crc32c", "0a1b2c3d", int64(3), int64(4096), int64(8192), int64(2), int64(0644), int64(5000))
	}
	f.Fuzz(func(t *testing.T, verbSel uint8, path, path2, subject, rights string,
		fd, length, offset, flags, mode, size int64) {
		// The verb comes from the table; the extension verbs' algo, sum
		// and budget arguments ride on subject, rights and size.
		q := &Request{
			Verb: Verbs[int(verbSel)%len(Verbs)].Name, Path: path, Path2: path2,
			Subject: subject, Rights: rights, FD: fd, Length: length,
			Offset: offset, Flags: flags, Mode: mode, Size: size,
			Algo: subject, Sum: rights, Budget: size,
		}
		enc, err := q.Encode()
		if err != nil {
			t.Fatalf("known verb %q does not encode: %v", q.Verb, err)
		}
		q2 := new(Request)
		if err := q2.Parse([]byte(enc)); err != nil {
			t.Fatalf("encoding of %+v does not parse: %q: %v", q, enc, err)
		}
		if q2.Verb != q.Verb {
			t.Fatalf("verb changed in round trip: %q -> %q (line %q)", q.Verb, q2.Verb, enc)
		}
		enc2, err := q2.Encode()
		if err != nil {
			t.Fatalf("re-parse of %q does not re-encode: %v", enc, err)
		}
		if enc != enc2 {
			t.Fatalf("encoding not canonical:\nfirst  %q\nsecond %q", enc, enc2)
		}
	})
}

// FuzzEscape asserts the token escaping is lossless and that its output
// honors the tokenizer contract: never empty, never containing the
// separators the tokenizer splits on.
func FuzzEscape(f *testing.F) {
	f.Add("")
	f.Add("/plain/path")
	f.Add("a b\tc\nd\re%f\x00g")
	f.Add("\xff\xfe")
	f.Fuzz(func(t *testing.T, s string) {
		esc := Escape(s)
		if esc == "" {
			t.Fatalf("Escape(%q) produced an empty token", s)
		}
		var fields [2][]byte
		if n := token.Split(fields[:], []byte(esc)); n != 1 || string(fields[0]) != esc {
			t.Fatalf("Escape(%q) = %q is not a single token", s, esc)
		}
		got, err := Unescape(esc)
		if err != nil {
			t.Fatalf("Unescape(Escape(%q)) failed: %v", s, err)
		}
		if got != s {
			t.Fatalf("escape round trip changed value: %q -> %q -> %q", s, esc, got)
		}
	})
}

// FuzzDigestTrailer covers both directions of the trailer codec. A
// parsed arbitrary line must re-marshal to a line that parses to the
// same (algo, sum); a trailer built from arbitrary inputs must parse
// back losslessly whenever the digest fits the protocol bound. The
// trailer rides directly after raw file bytes on the wire, so the
// parser seeing attacker-controlled garbage is the normal case, not
// the exception.
func FuzzDigestTrailer(f *testing.F) {
	f.Add("crc32c:0a1b2c3d")
	f.Add("sha256:" + strings.Repeat("ab", 32))
	f.Add("sha:512:" + strings.Repeat("ff", 64))
	f.Add("alg%20o:00")
	f.Add(":deadbeef")
	f.Add("crc32c:")
	f.Add("crc32c:xyz")
	f.Add("noseparator")
	f.Add("crc32c:" + strings.Repeat("00", 65))
	f.Fuzz(func(t *testing.T, line string) {
		algo, sum, err := ParseDigestTrailer([]byte(line))
		if err != nil {
			return
		}
		if len(sum) == 0 || len(sum) > MaxDigestLen {
			t.Fatalf("accepted digest of %d bytes from %q (bound %d)", len(sum), line, MaxDigestLen)
		}
		enc := MarshalDigestTrailer(algo, sum)
		algo2, sum2, err := ParseDigestTrailer([]byte(enc))
		if err != nil {
			t.Fatalf("re-marshal of %q does not parse: %q: %v", line, enc, err)
		}
		if algo2 != algo || !bytes.Equal(sum2, sum) {
			t.Fatalf("round trip changed trailer: %q -> (%q, %x) -> %q -> (%q, %x)",
				line, algo, sum, enc, algo2, sum2)
		}
	})
}
