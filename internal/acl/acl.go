// Package acl implements the per-directory access control lists of the
// Chirp file server (§4 of the paper).
//
// Each directory carries a list of entries mapping a subject pattern to
// a set of rights. Rights are: R (read files), W (write/create files),
// L (list the directory), D (delete files), A (administer the ACL) and
// V (reserve: the right to mkdir a fresh, privately-owned namespace).
// The V right carries its own parenthesized sub-rights — v(rwla) —
// which become the creator's rights in the reserved directory.
//
// Subjects are free-form virtual-user-space names of the form
// "method:name" (e.g. "hostname:laptop.cse.nd.edu",
// "globus:/O=NotreDame/CN=alice"); patterns may use '*' wildcards.
package acl

import (
	"bytes"
	"fmt"
	"strings"

	"tss/internal/token"
)

// Rights is a bit set of access rights.
type Rights uint8

// Individual rights.
const (
	R Rights = 1 << iota // read file contents
	W                    // write and create files, mkdir
	L                    // list directory contents, stat
	D                    // delete files (but not modify)
	A                    // read and modify the ACL
	V                    // reserve: create a privately-owned subdirectory
)

// AllRights is every right except V.
const AllRights = R | W | L | D | A

var rightLetters = []struct {
	r Rights
	c byte
}{
	{R, 'r'},
	{W, 'w'},
	{L, 'l'},
	{D, 'd'},
	{A, 'a'},
}

// Has reports whether r contains every right in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// String renders rights in canonical order, e.g. "rwl". Reserve renders
// as a bare 'v'; use Entry.String for the v(...) form with sub-rights.
func (r Rights) String() string {
	var b strings.Builder
	for _, rl := range rightLetters {
		if r&rl.r != 0 {
			b.WriteByte(rl.c)
		}
	}
	if r&V != 0 {
		b.WriteByte('v')
	}
	if b.Len() == 0 {
		return "n" // explicit "no rights"
	}
	return b.String()
}

// ParseRights parses a rights string such as "rwl", "n", or "rwlv".
// It does not accept the parenthesized reserve form; see ParseSpec.
func ParseRights(s string) (Rights, error) {
	var r Rights
	if s == "n" || s == "-" {
		return 0, nil
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'r':
			r |= R
		case 'w':
			r |= W
		case 'l':
			r |= L
		case 'd':
			r |= D
		case 'a':
			r |= A
		case 'v':
			r |= V
		default:
			return 0, fmt.Errorf("acl: unknown right %q in %q", s[i], s)
		}
	}
	return r, nil
}

// Entry grants rights to every subject matching Subject. ReserveRights
// holds the sub-rights of the V right: they are the rights granted to a
// creator inside a directory reserved via mkdir.
type Entry struct {
	Subject       string
	Rights        Rights
	ReserveRights Rights
}

// String renders the entry as "subject spec", using the v(...) form
// when reserve sub-rights are present.
func (e Entry) String() string {
	return EscapeSubject(e.Subject) + " " + e.Spec()
}

// Spec renders just the rights specification of the entry.
func (e Entry) Spec() string {
	base := e.Rights &^ V
	var b strings.Builder
	if base != 0 {
		b.WriteString(base.String())
	}
	if e.Rights&V != 0 {
		b.WriteByte('v')
		if e.ReserveRights != 0 {
			b.WriteByte('(')
			b.WriteString(e.ReserveRights.String())
			b.WriteByte(')')
		}
	}
	if b.Len() == 0 {
		return "n"
	}
	return b.String()
}

// ParseSpec parses a rights specification that may include the
// parenthesized reserve form, e.g. "rwl", "v(rwla)", "rlv(rwl)".
func ParseSpec(s string) (rights, reserve Rights, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		r, err := ParseRights(s)
		return r, 0, err
	}
	if !strings.HasSuffix(s, ")") || open == 0 || s[open-1] != 'v' {
		return 0, 0, fmt.Errorf("acl: malformed rights spec %q", s)
	}
	inner := s[open+1 : len(s)-1]
	reserve, err = ParseRights(inner)
	if err != nil {
		return 0, 0, err
	}
	if reserve&V != 0 {
		return 0, 0, fmt.Errorf("acl: reserve sub-rights may not include v: %q", s)
	}
	rights, err = ParseRights(s[:open]) // includes the trailing 'v'
	if err != nil {
		return 0, 0, err
	}
	return rights, reserve, nil
}

// EscapeSubject escapes whitespace in a subject so entries remain
// one-line, space-separated records.
func EscapeSubject(s string) string {
	r := strings.NewReplacer("%", "%25", " ", "%20", "\t", "%09", "\n", "%0A")
	return r.Replace(s)
}

// UnescapeSubject reverses EscapeSubject.
func UnescapeSubject(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			switch s[i : i+3] {
			case "%25":
				b.WriteByte('%')
				i += 2
				continue
			case "%20":
				b.WriteByte(' ')
				i += 2
				continue
			case "%09":
				b.WriteByte('\t')
				i += 2
				continue
			case "%0A":
				b.WriteByte('\n')
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Match reports whether subject matches pattern. Patterns are literal
// except for '*', which matches any (possibly empty) run of characters.
// This is the wildcard form used in the paper's examples, e.g.
// "hostname:*.cse.nd.edu" or "globus:/O=Notre_Dame/*".
func Match(pattern, subject string) bool {
	// Iterative glob match restricted to '*'.
	var px, sx int
	star, mark := -1, 0
	for sx < len(subject) {
		switch {
		case px < len(pattern) && (pattern[px] == subject[sx]):
			px++
			sx++
		case px < len(pattern) && pattern[px] == '*':
			star = px
			mark = sx
			px++
		case star >= 0:
			px = star + 1
			mark++
			sx = mark
		default:
			return false
		}
	}
	for px < len(pattern) && pattern[px] == '*' {
		px++
	}
	return px == len(pattern)
}

// List is an ordered access control list.
type List struct {
	Entries []Entry
}

// Parse reads an ACL in its serialized form: one entry per line,
// "subject spec". Blank lines and lines starting with '#' are ignored.
func Parse(data []byte) (*List, error) {
	l := &List{}
	for ln := 1; len(data) > 0; ln++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var fields [3][]byte
		if token.Split(fields[:], line) != 2 {
			return nil, fmt.Errorf("acl: line %d: want \"subject rights\", got %q", ln, line)
		}
		rights, reserve, err := ParseSpec(string(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("acl: line %d: %v", ln, err)
		}
		l.Entries = append(l.Entries, Entry{
			Subject:       UnescapeSubject(string(fields[0])),
			Rights:        rights,
			ReserveRights: reserve,
		})
	}
	return l, nil
}

// Encode serializes the list in the form accepted by Parse.
func (l *List) Encode() []byte {
	var b strings.Builder
	for _, e := range l.Entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// RightsFor returns the union of rights granted to subject by all
// matching entries, and the union of reserve sub-rights.
func (l *List) RightsFor(subject string) (rights, reserve Rights) {
	for _, e := range l.Entries {
		if Match(e.Subject, subject) {
			rights |= e.Rights
			reserve |= e.ReserveRights
		}
	}
	return rights, reserve
}

// Allows reports whether subject holds every right in want.
func (l *List) Allows(subject string, want Rights) bool {
	r, _ := l.RightsFor(subject)
	return r.Has(want)
}

// Set grants subject exactly the given rights, replacing any existing
// entry with the same (literal) subject. Granting no rights removes
// the entry.
func (l *List) Set(subject string, rights, reserve Rights) {
	for i, e := range l.Entries {
		if e.Subject == subject {
			if rights == 0 && reserve == 0 {
				l.Entries = append(l.Entries[:i], l.Entries[i+1:]...)
				return
			}
			l.Entries[i].Rights = rights
			l.Entries[i].ReserveRights = reserve
			return
		}
	}
	if rights == 0 && reserve == 0 {
		return
	}
	l.Entries = append(l.Entries, Entry{Subject: subject, Rights: rights, ReserveRights: reserve})
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	c := &List{Entries: make([]Entry, len(l.Entries))}
	copy(c.Entries, l.Entries)
	return c
}
