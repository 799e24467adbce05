// Package stackspec names a storage stack in one string and builds it
// from running Chirp servers. By the recursion of §3 every stack is a
// vfs.FileSystem, so a tool that can name a stack can run any verb on
// it; this package is the one place a target is parsed. The grammar:
//
//	chirp://host:port[/dir]     one server, rooted at dir
//	host:port[/dir]             the same, as shorthand
//	dsfs://host:port[/tree]?data=name=host:port[/dir],...
//	                            a DSFS (§5): the directory tree under
//	                            tree, file data spread over the named
//	                            data servers; the names go into stubs
//	mirror:(SPEC,SPEC,...)      a mirror over the replica stacks
//
// A directory defaults to "/" and may not contain ',' or ')'. Inside a
// mirror, an element that starts "name=" continues the data list of
// the dsfs before it. Credentials, timeouts, caching and retries are
// not part of a spec: they belong to the caller, which supplies the
// Dialer and wraps what Build returns.
package stackspec

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"tss/internal/abstraction"
	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// Spec is a parsed stack spec.
type Spec struct {
	Scheme   string   // "chirp", "dsfs" or "mirror"
	Addr     string   // chirp, dsfs: the (metadata) server's host:port
	Dir      string   // chirp: the directory the stack is rooted at; dsfs: the tree
	Data     []Server // dsfs: the data servers
	Replicas []Spec   // mirror: the replicas, in order
}

// Server is a named directory on one Chirp server: a DSFS data server
// or a GEMS storage node. Stubs and records name it by Name.
type Server struct {
	Name, Addr, Dir string
}

// Parse parses a whole stack spec.
func Parse(s string) (Spec, error) {
	sp, rest, err := parse(s)
	if err == nil && rest != "" {
		err = fmt.Errorf("unexpected %q", rest)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("stack spec %q: %w", s, err)
	}
	return sp, nil
}

// Cut splits "SPEC:/PATH", a file on a stack, at the first ":/" whose
// left side parses as a spec. ok is false for anything else, such as a
// local path.
func Cut(s string) (sp Spec, path string, ok bool) {
	for i := 0; ; i++ {
		j := strings.Index(s[i:], ":/")
		if j < 0 {
			return Spec{}, "", false
		}
		i += j
		if sp, err := Parse(s[:i]); err == nil {
			return sp, s[i+1:], true
		}
	}
}

// ParseServer parses one "name=host:port[/dir]" element; dir defaults
// to def.
func ParseServer(s, def string) (Server, error) {
	srv, rest, err := parseServer(s, def)
	if err == nil && rest != "" {
		err = fmt.Errorf("unexpected %q", rest)
	}
	if err != nil {
		return Server{}, fmt.Errorf("server %q: %w", s, err)
	}
	return srv, nil
}

// parse reads one spec from the front of s and returns the rest.
func parse(s string) (Spec, string, error) {
	switch {
	case strings.HasPrefix(s, "mirror:("):
		sp := Spec{Scheme: "mirror"}
		rest := s[len("mirror:("):]
		for {
			r, tail, err := parse(rest)
			if err != nil {
				return Spec{}, "", err
			}
			sp.Replicas = append(sp.Replicas, r)
			if tail == "" {
				return Spec{}, "", errors.New("mirror: missing )")
			}
			switch rest = tail[1:]; tail[0] {
			case ')':
				return sp, rest, nil
			case ',':
			default:
				return Spec{}, "", fmt.Errorf("mirror: unexpected %q", tail)
			}
		}
	case strings.HasPrefix(s, "dsfs://"):
		addr, dir, rest, err := location(s[len("dsfs://"):], "/", "?,)")
		if err != nil {
			return Spec{}, "", err
		}
		if !strings.HasPrefix(rest, "?data=") {
			return Spec{}, "", errors.New("dsfs: want ?data=name=host:port/dir,...")
		}
		sp := Spec{Scheme: "dsfs", Addr: addr, Dir: dir}
		rest = rest[len("?data="):]
		for {
			srv, tail, err := parseServer(rest, "/")
			if err != nil {
				return Spec{}, "", err
			}
			sp.Data = append(sp.Data, srv)
			if !strings.HasPrefix(tail, ",") || !isServer(tail[1:]) {
				return sp, tail, nil
			}
			rest = tail[1:]
		}
	default:
		addr, dir, rest, err := location(strings.TrimPrefix(s, "chirp://"), "/", ",)")
		return Spec{Scheme: "chirp", Addr: addr, Dir: dir}, rest, err
	}
}

// isServer reports whether s starts with "name=": a non-empty name
// ends at '=' before any ':', '/', ',' or ')'. No host:port can, since
// a host may not contain '='.
func isServer(s string) bool {
	i := strings.IndexAny(s, "=:/,)")
	return i > 0 && s[i] == '='
}

func parseServer(s, def string) (Server, string, error) {
	if !isServer(s) {
		return Server{}, "", errors.New("want name=host:port[/dir]")
	}
	name, s, _ := strings.Cut(s, "=")
	addr, dir, rest, err := location(s, def, ",)")
	return Server{Name: name, Addr: addr, Dir: dir}, rest, err
}

// location reads "host:port[/dir]" up to the first byte of stops; dir
// defaults to def and comes back normalized.
func location(s, def, stops string) (addr, dir, rest string, err error) {
	end := strings.IndexAny(s, stops)
	if end < 0 {
		end = len(s)
	}
	addr, dir, rest = s[:end], def, s[end:]
	if i := strings.IndexByte(addr, '/'); i >= 0 {
		addr, dir = addr[:i], addr[i:]
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" || strings.Contains(host, "=") {
		return "", "", "", fmt.Errorf("bad server address %q", addr)
	}
	if dir, err = pathutil.Norm(dir); err != nil {
		return "", "", "", fmt.Errorf("bad directory %q", dir)
	}
	return addr, dir, rest, nil
}

// Dialer connects to the Chirp server at a host:port address.
type Dialer func(addr string) (*chirp.Client, error)

// TCP returns a Dialer that connects over TCP with cfg's timeout, pool
// size and verification, offering cfg.Credentials and then the
// hostname and Unix identities.
func TCP(cfg chirp.ClientConfig) Dialer {
	cfg.Credentials = append(slices.Clip(cfg.Credentials), auth.HostnameCredential{}, auth.UnixCredential{})
	return func(addr string) (*chirp.Client, error) {
		cfg := cfg
		cfg.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) }
		return chirp.Dial(cfg)
	}
}

// Stack is a built spec.
type Stack struct {
	FS vfs.FileSystem
	// Client is the server of a chirp spec and Prefix the directory FS
	// is rooted at, so identity and ACL verbs can reach the server.
	Client *chirp.Client
	Prefix string
	Dist   *abstraction.Dist     // a dsfs spec's filesystem
	Mirror *abstraction.MirrorFS // a mirror spec's filesystem
	// Servers counts the servers the stack spreads its data over: one
	// for chirp, the data servers of a dsfs, the replicas of a mirror.
	Servers int
}

// Builder builds stacks, dialing each address once: stacks that name
// the same server share its client. The zero value with Dial set is
// ready to use; Close closes every client.
type Builder struct {
	Dial    Dialer
	clients map[string]*chirp.Client
}

func (b *Builder) client(addr string) (*chirp.Client, error) {
	if c, ok := b.clients[addr]; ok {
		return c, nil
	}
	c, err := b.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if b.clients == nil {
		b.clients = make(map[string]*chirp.Client)
	}
	b.clients[addr] = c
	return c, nil
}

// Build assembles sp through the abstractions' constructors; a dsfs
// spec's tree and data directories are created if they are missing.
func (b *Builder) Build(sp Spec) (*Stack, error) { return b.build(sp, true) }

// Open is Build over a stack that already exists: it creates nothing,
// and a dsfs spec whose tree is not there fails with ENOENT.
func (b *Builder) Open(sp Spec) (*Stack, error) { return b.build(sp, false) }

func (b *Builder) build(sp Spec, create bool) (*Stack, error) {
	switch sp.Scheme {
	case "chirp":
		c, err := b.client(sp.Addr)
		if err != nil {
			return nil, err
		}
		st := &Stack{FS: c, Client: c, Prefix: sp.Dir, Servers: 1}
		if sp.Dir != "/" {
			if st.FS, err = vfs.Subtree(c, sp.Dir); err != nil {
				return nil, err
			}
		}
		return st, nil
	case "dsfs":
		servers, err := b.DataServers(sp.Data)
		if err != nil {
			return nil, err
		}
		meta, err := b.client(sp.Addr)
		if err != nil {
			return nil, err
		}
		host, _ := os.Hostname() // "" falls back to a fixed client id
		dsfs := abstraction.OpenDSFS
		if create {
			dsfs = abstraction.NewDSFS
		}
		d, err := dsfs(meta, sp.Dir, servers, abstraction.Options{ClientID: host})
		if err != nil {
			return nil, err
		}
		return &Stack{FS: d, Dist: d, Servers: len(servers)}, nil
	case "mirror":
		replicas := make([]vfs.FileSystem, len(sp.Replicas))
		for i, r := range sp.Replicas {
			st, err := b.build(r, create)
			if err != nil {
				return nil, err
			}
			replicas[i] = st.FS
		}
		m, err := abstraction.NewMirror(replicas...)
		if err != nil {
			return nil, err
		}
		return &Stack{FS: m, Mirror: m, Servers: len(replicas)}, nil
	}
	return nil, fmt.Errorf("stack spec: unknown scheme %q", sp.Scheme)
}

// DataServers dials the named servers.
func (b *Builder) DataServers(srvs []Server) ([]abstraction.DataServer, error) {
	out := make([]abstraction.DataServer, len(srvs))
	for i, s := range srvs {
		c, err := b.client(s.Addr)
		if err != nil {
			return nil, fmt.Errorf("data server %s: %w", s.Name, err)
		}
		out[i] = abstraction.DataServer{Name: s.Name, FS: c, Dir: s.Dir}
	}
	return out, nil
}

// Close closes every client the builder dialed.
func (b *Builder) Close() error {
	var first error
	for _, c := range b.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
