// Package proto defines the Chirp wire protocol: a line-oriented,
// Unix-like remote procedure call protocol carried over a single
// stream connection (§4 of the paper).
//
// Each request is one text line: a verb followed by space-separated,
// percent-escaped arguments. Each response begins with one line
// containing a decimal integer — a non-negative result value, or the
// negated error number (vfs.Errno) on failure — optionally followed by
// fixed-length raw data or further lines. Bulk data travels on the same
// connection as control, so a single TCP window serves both (the paper
// contrasts this with FTP's separate data connections).
//
// Requests (the verbs, their argument layouts, request bodies and
// feature groups are declared once, in Verbs; this is the same list
// with what each answers):
//
//	open <path> <flags> <mode>          -> fd, then stat line
//	pread <fd> <length> <offset>        -> n, then n raw bytes
//	pwrite <fd> <length> <offset>       (then length raw bytes) -> n
//	fstat <fd>                          -> 0, then stat line
//	fsync <fd>                          -> 0
//	ftruncate <fd> <size>               -> 0
//	close <fd>                          -> 0
//	stat <path>                         -> 0, then stat line
//	unlink <path>                       -> 0
//	rename <old> <new>                  -> 0
//	mkdir <path> <mode>                 -> 0
//	rmdir <path>                        -> 0
//	getdir <path>                       -> count, then count entry lines
//	getfile <path>                      -> size, then size raw bytes
//	putfile <path> <mode> <size>        (then size raw bytes) -> size
//	checksum <path> <algo>              -> 0, then digest trailer line
//	getfilesum <path> <algo>            -> size, then size raw bytes, then digest trailer line
//	putfilesum <path> <mode> <size> <algo> -> 0 (ready), then size raw bytes and a
//	                                    digest trailer line from the client -> size
//	putbegin <path> <mode> <size>       -> 0 (creates the file at its full size)
//	putpart <path> <offset> <length> <algo> (then length raw bytes and, with a
//	                                    non-empty algo, a digest trailer line) -> length
//	putcomplete <path> <size> <algo> <sum> -> 0 (verifies size and composed digest,
//	                                    unlinking the file on mismatch)
//	getpart <path> <offset> <length> <algo> -> n, then n raw bytes, then a digest
//	                                    trailer line when algo is non-empty
//	truncate <path> <size>              -> 0
//	chmod <path> <mode>                 -> 0
//	lease <path>                        -> 0, then "<id> <ttl_ms> <version>" line
//	leasebreak <id>                     -> 0
//	getacl <path>                       -> count, then count ACL lines
//	setacl <path> <subject> <rights>    -> 0
//	statfs                              -> 0, then "total free" line
//	whoami                              -> 0, then subject line
//	deadline <budget_ms>                -> 0 (arms the deadline for the next request)
//
// deadline is a pipelined prefix verb: a client with a request timeout
// writes "deadline <remaining_ms>" immediately before the real request
// line and reads two status lines back. The server answers both in one
// write: it flushes only when no complete request line is waiting in
// its reader. It fast-rejects the armed request with ETIMEDOUT once the
// budget lapses, instead of burning cycles producing an answer nobody
// is waiting for. Because the prefix carries no data phase, a legacy
// server answers the unknown verb with EINVAL and framing stays intact —
// the established downgrade path (the client stops sending the prefix
// after the first EINVAL, exactly like the checksum and lease
// negotiation).
package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"tss/internal/token"
	"tss/internal/vfs"
)

// MaxLineLen bounds a single protocol line, preventing memory
// exhaustion from a malicious peer.
const MaxLineLen = 64 << 10

// MaxIOSize bounds a single pread/pwrite transfer. Larger application
// requests are split by the client.
const MaxIOSize = 8 << 20

// emptyToken encodes the empty string; it is otherwise unparseable as
// an escape (truncated), so it cannot collide with any Escape output.
const emptyToken = "%0"

const hexUpper = "0123456789ABCDEF"

// needsEscape reports whether s contains any byte Escape must rewrite.
func needsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%', ' ', '\t', '\n', '\r', 0:
			return true
		}
	}
	return false
}

// AppendEscape appends the escaped form of s to dst and returns the
// extended slice. It is the allocation-free core of Escape, used by the
// append-based encoders on the RPC hot path.
func AppendEscape(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, emptyToken...)
	}
	if !needsEscape(s) {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '%', ' ', '\t', '\n', '\r', 0:
			dst = append(dst, '%', hexUpper[c>>4], hexUpper[c&0xF])
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// Escape percent-escapes an argument so it contains no spaces, newlines
// or NUL bytes, and is never empty (fields must survive tokenization).
// A string with nothing to escape is returned unchanged, unallocated.
func Escape(s string) string {
	if s == "" {
		return emptyToken
	}
	if !needsEscape(s) {
		return s
	}
	return string(AppendEscape(nil, s))
}

// Unescape reverses Escape. A string with nothing to unescape is
// returned unchanged, unallocated.
func Unescape(s string) (string, error) {
	if strings.IndexByte(s, '%') < 0 {
		return s, nil
	}
	return unescape([]byte(s))
}

// unescape reverses Escape on a token that may be a view into a
// reader's buffer: the result is always a fresh string, one allocation,
// never a view.
func unescape(b []byte) (string, error) {
	if string(b) == emptyToken {
		return "", nil
	}
	if bytes.IndexByte(b, '%') < 0 {
		return string(b), nil
	}
	var out strings.Builder
	out.Grow(len(b)) // decoding never lengthens
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '%' {
			out.WriteByte(c)
			continue
		}
		if i+2 >= len(b) {
			return "", fmt.Errorf("proto: truncated escape in %q", string(b))
		}
		v, err := strconv.ParseUint(string(b[i+1:i+3]), 16, 8)
		if err != nil {
			return "", fmt.Errorf("proto: bad escape in %q", string(b))
		}
		out.WriteByte(byte(v))
		i += 2
	}
	return out.String(), nil
}

// ReadLine reads one newline-terminated line and returns it without its
// terminator, enforcing MaxLineLen. The line is a view into r's buffer,
// valid until the next read from r: a caller that keeps any of it
// copies it first. A line longer than r's buffer is gathered into a
// fresh slice.
func ReadLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= MaxLineLen {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if len(line) > MaxLineLen {
		return nil, fmt.Errorf("proto: line exceeds %d bytes", MaxLineLen)
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// ReadCode reads a response status line: a decimal integer. Negative
// values decode to the corresponding vfs.Errno.
func ReadCode(r *bufio.Reader) (int64, error) {
	line, err := ReadLine(r)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proto: malformed status line %q", string(line))
	}
	return v, nil
}

// AppendStat appends a stat line (without newline) for fi to dst.
func AppendStat(dst []byte, fi vfs.FileInfo) []byte {
	dst = AppendEscape(dst, fi.Name)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, fi.Size, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(fi.Mode), 8)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, fi.MTime, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, fi.Inode, 10)
	if fi.IsDir {
		return append(dst, " 1"...)
	}
	return append(dst, " 0"...)
}

// MarshalStat encodes a FileInfo as a stat line.
func MarshalStat(fi vfs.FileInfo) string {
	return string(AppendStat(nil, fi))
}

// UnmarshalStat decodes a stat line; the line may be a ReadLine view.
func UnmarshalStat(line []byte) (vfs.FileInfo, error) {
	var f [7][]byte
	if token.Split(f[:], line) != 6 {
		return vfs.FileInfo{}, fmt.Errorf("proto: malformed stat line %q", string(line))
	}
	name, err := unescape(f[0])
	if err != nil {
		return vfs.FileInfo{}, err
	}
	size, err1 := strconv.ParseInt(string(f[1]), 10, 64)
	mode, err2 := strconv.ParseUint(string(f[2]), 8, 32)
	mtime, err3 := strconv.ParseInt(string(f[3]), 10, 64)
	inode, err4 := strconv.ParseUint(string(f[4]), 10, 64)
	isdir, err5 := strconv.ParseInt(string(f[5]), 10, 8)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
		return vfs.FileInfo{}, fmt.Errorf("proto: malformed stat line %q", string(line))
	}
	return vfs.FileInfo{
		Name:  name,
		Size:  size,
		Mode:  uint32(mode),
		MTime: mtime,
		Inode: inode,
		IsDir: isdir != 0,
	}, nil
}

// AppendDirEntry appends one getdir response line (without newline) to
// dst.
func AppendDirEntry(dst []byte, e vfs.DirEntry) []byte {
	dst = AppendEscape(dst, e.Name)
	if e.IsDir {
		return append(dst, " 1"...)
	}
	return append(dst, " 0"...)
}

// MarshalDirEntry encodes one getdir response line.
func MarshalDirEntry(e vfs.DirEntry) string {
	return string(AppendDirEntry(nil, e))
}

// UnmarshalDirEntry decodes one getdir response line; the line may be
// a ReadLine view.
func UnmarshalDirEntry(line []byte) (vfs.DirEntry, error) {
	var f [3][]byte
	if token.Split(f[:], line) != 2 {
		return vfs.DirEntry{}, fmt.Errorf("proto: malformed dir entry %q", string(line))
	}
	name, err := unescape(f[0])
	if err != nil {
		return vfs.DirEntry{}, err
	}
	return vfs.DirEntry{Name: name, IsDir: string(f[1]) == "1"}, nil
}

// Request is a parsed protocol request. Which fields a verb uses is its
// argument layout in Verbs; unused fields are zero.
type Request struct {
	Verb    string
	Path    string
	Path2   string // rename's new name
	Subject string
	Rights  string
	FD      int64 // a descriptor; for leasebreak, the lease ID
	Length  int64
	Offset  int64
	Flags   int64
	Mode    int64
	Size    int64
	Algo    string
	Sum     string // lowercase hex digest; empty when Algo is empty
	Budget  int64  // remaining budget in milliseconds
}

// AppendTo appends the request as a protocol line (without newline) to
// dst and returns the extended slice. It is the allocation-free encoder
// the client uses on the RPC hot path: with a recycled dst, encoding
// performs no heap allocation. The line is the verb followed by the
// arguments its Verbs entry lays out.
func (q *Request) AppendTo(dst []byte) ([]byte, error) {
	v := Lookup(q.Verb)
	if v == nil {
		return dst, fmt.Errorf("proto: unknown verb %q", q.Verb)
	}
	dst = append(dst, v.Name...)
	for _, f := range v.Args {
		dst = append(dst, ' ')
		if s, n := q.arg(f); s != nil {
			dst = AppendEscape(dst, *s)
		} else {
			dst = strconv.AppendInt(dst, *n, f.base())
		}
	}
	return dst, nil
}

// Encode renders the request as a protocol line (without newline).
func (q *Request) Encode() (string, error) {
	b, err := q.AppendTo(nil)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// maxFields bounds the tokens of a request line the parser stores: the
// verb and the longest argument layout, with room to spare. A longer
// line is still counted, and refused.
const maxFields = 8

// Parse parses a protocol line into q, overwriting every field: the
// verb selects a Verbs entry, whose layout says which field each
// argument fills. line may be a ReadLine view: no field of q refers to
// it afterwards, because each string argument is copied exactly once.
// So a server session parses every request into the one Request it
// owns, and an integer-only verb allocates nothing.
func (q *Request) Parse(line []byte) error {
	*q = Request{}
	var f [maxFields][]byte
	n := token.Split(f[:], line)
	if n == 0 {
		return fmt.Errorf("proto: empty request")
	}
	v := verbByName[string(f[0])]
	if v == nil {
		return fmt.Errorf("proto: unknown verb %q", string(f[0]))
	}
	if n-1 != len(v.Args) {
		return fmt.Errorf("proto: %s: want %d args, got %d", v.Name, len(v.Args), n-1)
	}
	q.Verb = v.Name
	for i, a := range v.Args {
		var err error
		if s, num := q.arg(a); s != nil {
			*s, err = unescape(f[i+1])
		} else {
			*num, err = strconv.ParseInt(string(f[i+1]), a.base(), 64)
		}
		if err != nil {
			return fmt.Errorf("proto: %s: %w", v.Name, err)
		}
	}
	return nil
}

// ParseRequest is Parse into a new Request, for a line held as a
// string.
func ParseRequest(line string) (*Request, error) {
	q := new(Request)
	if err := q.Parse([]byte(line)); err != nil {
		return nil, err
	}
	return q, nil
}
