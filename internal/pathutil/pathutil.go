// Package pathutil implements the path handling used by every layer of
// the tactical storage system: logical normalization of client-supplied
// paths and confinement of those paths beneath a server root.
//
// Confinement is the software equivalent of chroot described in the
// paper (§4): a Chirp server exports an arbitrary directory and must
// guarantee that no client-supplied path — however many ".." components
// it contains — escapes that directory. AppendHost is the one place that
// maps a logical path to a host path.
package pathutil

import (
	"errors"
	"path"
	"strings"
)

// ErrBadPath reports a path that cannot be represented in the server
// namespace at all (embedded NUL or newline, which would corrupt the
// line-oriented wire protocol or the host filesystem API).
var ErrBadPath = errors.New("pathutil: malformed path")

// Norm converts a client-supplied path into canonical logical form: an
// absolute, slash-separated path with ".", ".." and duplicate slashes
// resolved, where ".." never ascends above "/". Relative input is
// interpreted against "/". The empty string normalizes to "/".
//
// Norm is purely lexical; it never touches the filesystem.
func Norm(p string) (string, error) {
	if strings.IndexByte(p, 0) >= 0 || strings.IndexByte(p, '\n') >= 0 {
		return "", ErrBadPath
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	// path.Clean resolves "." and ".." and, because the input is
	// absolute, clamps ".." at the root rather than escaping it.
	return path.Clean(p), nil
}

// Split returns the components of a normalized path, in order. The root
// "/" has no components.
func Split(p string) []string {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// Join joins components into a normalized absolute path.
func Join(elem ...string) string {
	return path.Clean("/" + strings.Join(elem, "/"))
}

// Dir returns the parent of a normalized path. The parent of "/" is "/".
func Dir(p string) string {
	return path.Dir(p)
}

// Base returns the final component of a normalized path.
func Base(p string) string {
	return path.Base(p)
}

// IsRoot reports whether p is the root path.
func IsRoot(p string) bool { return p == "/" }

// Within reports whether the normalized path p lies at or beneath the
// normalized path prefix. Both arguments must already be normalized.
func Within(prefix, p string) bool {
	if prefix == "/" {
		return strings.HasPrefix(p, "/")
	}
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}

// Rebase interprets the normalized logical path p relative to the
// normalized mount prefix, returning the remainder as a normalized
// path. It reports ok=false when p is not within prefix.
func Rebase(prefix, p string) (rest string, ok bool) {
	if !Within(prefix, p) {
		return "", false
	}
	if prefix == "/" {
		return p, true
	}
	rest = strings.TrimPrefix(p, prefix)
	if rest == "" {
		rest = "/"
	}
	return rest, true
}

// AppendHost appends the host path of a client-supplied logical path
// beneath root to dst, NUL-terminated for a system call, and returns
// the extended slice. The result is root itself or a descendant of
// root; escape via ".." is impossible because the logical path is
// normalized first (Norm). root must be a host path without a trailing
// slash (except "/"). For a normalized logical path, as the server
// passes, it allocates only when dst is too small.
func AppendHost(dst []byte, root, logical string) ([]byte, error) {
	norm, err := Norm(logical)
	if err != nil {
		return dst, err
	}
	if root != "/" {
		dst = append(dst, root...)
		if norm == "/" {
			return append(dst, 0), nil
		}
	}
	return append(append(dst, norm...), 0), nil
}
