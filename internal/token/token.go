// Package token is the one tokenizer of the tree's line formats: Chirp
// request and reply lines (internal/chirp/proto) and ACL files
// (internal/acl). A token is a maximal run of bytes other than ASCII
// space and tab. strings.Fields would also split on Unicode
// whitespace, which would corrupt unescaped multibyte arguments such as
// U+2008.
package token

// Split stores the tokens of line in out, in order, and returns how
// many tokens line has. A count above len(out) means out was too short:
// only the first len(out) tokens are stored. The tokens are views into
// line, so Split allocates nothing.
func Split(out [][]byte, line []byte) int {
	n := 0
	for i := 0; i < len(line); {
		if isSep(line[i]) {
			i++
			continue
		}
		start := i
		for i < len(line) && !isSep(line[i]) {
			i++
		}
		if n < len(out) {
			out[n] = line[start:i]
		}
		n++
	}
	return n
}

func isSep(c byte) bool { return c == ' ' || c == '\t' }
