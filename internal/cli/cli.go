// Package cli is the verb table of the tss and tssh commands. Every
// verb runs on any stack a stackspec names, because every stack is a
// vfs.FileSystem (§3). The few verbs that need more than the interface
// find it on the stack the path lies in: the stub of a DSFS file, the
// ACL of a Chirp directory, a mirror to scrub, a DSFS to check.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tss/internal/abstraction"
	"tss/internal/pathutil"
	"tss/internal/stackspec"
	"tss/internal/vfs"
)

// Env is what a verb runs against.
type Env struct {
	FS  vfs.FileSystem // the namespace that verb paths name
	Cwd string         // relative paths are taken against it; "" is "/"
	Out io.Writer
	// Stack returns the stack that holds the namespace path p, and p's
	// path within it.
	Stack func(p string) (*stackspec.Stack, string, error)
	// Copy tunes get and put.
	Copy vfs.CopyOptions
	// Retry runs an idempotent operation, retrying it on transport
	// failure; nil runs it once.
	Retry func(op func() error) error
}

// Run runs a verb whose flags have been parsed; it checks the number
// of arguments.
type Run func(e *Env, args []string) error

type verb struct {
	flags    string // synopsis of the verb's flags
	args     string // synopsis of its arguments
	min, max int
	// bind declares the verb's flags on fl and returns its body.
	bind func(fl *flag.FlagSet) Run
}

// plain binds a verb that has no flags.
func plain(run Run) func(*flag.FlagSet) Run {
	return func(*flag.FlagSet) Run { return run }
}

var verbs = map[string]verb{
	"ls":     {"", "[DIR]", 0, 1, plain(ls)},
	"cat":    {"", "FILE", 1, 1, plain(cat)},
	"put":    {"", "FILE LOCAL", 2, 2, plain(put)},
	"get":    {"", "FILE LOCAL", 2, 2, plain(get)},
	"sum":    {"", "FILE [ALGO]", 1, 2, plain(sum)},
	"mkdir":  {"", "DIR", 1, 1, plain(mkdir)},
	"rm":     {"", "FILE", 1, 1, plain(rm)},
	"rmdir":  {"", "DIR", 1, 1, plain(rmdir)},
	"mv":     {"", "OLD NEW", 2, 2, plain(mv)},
	"stat":   {"", "PATH", 1, 1, plain(stat)},
	"statfs": {"", "", 0, 0, plain(statfs)},
	"whoami": {"", "", 0, 0, plain(whoami)},
	"getacl": {"", "DIR", 1, 1, plain(getacl)},
	"setacl": {"", "DIR SUBJECT RIGHTS", 3, 3, plain(setacl)},
	"scrub":  {"[-repair] [-algo A] ", "[DIR]", 0, 1, scrub},
	"fsck":   {"[-remove-dangling] [-remove-orphans] ", "", 0, 0, fsck},
}

// creators are the verbs that may start a stack: for them a missing
// DSFS tree is created. Every other verb runs on a stack that must
// already exist (stackspec.Builder.Open), so a check or a read of a
// misspelt spec fails instead of leaving an empty tree behind.
var creators = map[string]bool{"put": true, "mkdir": true}

// Creates reports whether verb name may create the stack it runs on.
func Creates(name string) bool { return creators[name] }

// Lookup finds the verb name and parses its flags from the front of
// args. It returns the verb and the arguments after its flags.
func Lookup(name string, args []string) (Run, []string, error) {
	v, ok := verbs[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown verb %q", name)
	}
	fl := flag.NewFlagSet(name, flag.ContinueOnError)
	fl.SetOutput(io.Discard)
	body := v.bind(fl)
	if err := fl.Parse(args); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return func(e *Env, args []string) error {
		if len(args) < v.min || len(args) > v.max {
			return fmt.Errorf("usage: %s %s%s", name, v.flags, v.args)
		}
		return body(e, args)
	}, fl.Args(), nil
}

// Usage writes one synopsis line per verb, with target (for example
// "SPEC ") between a verb's flags and its arguments.
func Usage(w io.Writer, target string) {
	names := make([]string, 0, len(verbs))
	for n := range verbs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := verbs[n]
		fmt.Fprintf(w, "  %s\n", strings.TrimSpace(n+" "+v.flags+target+v.args))
	}
}

// path resolves a verb's path argument against the working directory.
func (e *Env) path(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		p = e.Cwd + "/" + p
	}
	n, err := pathutil.Norm(p)
	if err != nil {
		return "", vfs.EINVAL
	}
	return n, nil
}

// optional returns a verb's optional argument, "" when it is absent.
func optional(args []string) string {
	if len(args) == 0 {
		return ""
	}
	return args[0]
}

// retry runs an idempotent op under e.Retry.
func (e *Env) retry(op func() error) error {
	if e.Retry == nil {
		return op()
	}
	return e.Retry(op)
}

// stack returns the stack that holds path argument p ("" is the
// working directory) and the path within it.
func (e *Env) stack(p string) (*stackspec.Stack, string, error) {
	n, err := e.path(p)
	if err != nil {
		return nil, "", err
	}
	return e.Stack(n)
}

// server returns the stack of the Chirp server behind path argument p
// and the path on that server.
func (e *Env) server(p string) (*stackspec.Stack, string, error) {
	st, rest, err := e.stack(p)
	if err == nil && st.Client == nil {
		err = errors.New("not a chirp server")
	}
	if err != nil {
		return nil, "", err
	}
	return st, pathutil.Join(st.Prefix, rest), nil
}

func ls(e *Env, args []string) error {
	p, err := e.path(optional(args))
	if err != nil {
		return err
	}
	var ents []vfs.DirEntry
	if err := e.retry(func() (err error) { ents, err = e.FS.ReadDir(p); return }); err != nil {
		return err
	}
	for _, d := range ents {
		kind := "-"
		if d.IsDir {
			kind = "d"
		}
		fmt.Fprintf(e.Out, "%s %s\n", kind, d.Name)
	}
	return nil
}

// cat streams a file out: one getfile where the stack has it, reads
// through an open descriptor otherwise.
func cat(e *Env, args []string) error {
	p, err := e.path(args[0])
	if err != nil {
		return err
	}
	_, err = vfs.ReadFileTo(e.FS, p, e.Out)
	return err
}

// transfer copies between the file args[0] and the local file args[1],
// streaming through the copy engine.
func transfer(e *Env, args []string, up bool) error {
	p, err := e.path(args[0])
	if err != nil {
		return err
	}
	local, err := LocalLoc(args[1])
	if err != nil {
		return err
	}
	remote, opts := vfs.Loc{FS: e.FS, Path: p}, e.Copy
	if up {
		opts.Mode = 0o644
		_, err = vfs.Copy(context.Background(), remote, local, opts)
	} else {
		_, err = vfs.Copy(context.Background(), local, remote, opts)
	}
	return err
}

func put(e *Env, args []string) error { return transfer(e, args, true) }
func get(e *Env, args []string) error { return transfer(e, args, false) }

// LocalLoc names a host file as a copy endpoint: a LocalFS rooted at
// the containing directory, so the copy engine's capability probe and
// positional fallback work on the local side like any other.
func LocalLoc(path string) (vfs.Loc, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return vfs.Loc{}, err
	}
	dir, base := filepath.Split(abs)
	if base == "" {
		return vfs.Loc{}, fmt.Errorf("%s: not a file path", path)
	}
	fs, err := vfs.NewLocalFS(filepath.Clean(dir))
	if err != nil {
		return vfs.Loc{}, fmt.Errorf("%s: %w", path, err)
	}
	return vfs.Loc{FS: fs, Path: "/" + base}, nil
}

func sum(e *Env, args []string) error {
	p, err := e.path(args[0])
	if err != nil {
		return err
	}
	algo := optional(args[1:])
	var s string
	if err := e.retry(func() (err error) { s, err = vfs.ChecksumFile(e.FS, p, algo); return }); err != nil {
		return err
	}
	fmt.Fprintln(e.Out, s)
	return nil
}

// onPath runs a non-idempotent namespace operation once on the
// resolved path arguments.
func onPath(op func(fs vfs.FileSystem, p []string) error) Run {
	return func(e *Env, args []string) error {
		ps := make([]string, len(args))
		for i, a := range args {
			var err error
			if ps[i], err = e.path(a); err != nil {
				return err
			}
		}
		return op(e.FS, ps)
	}
}

var (
	mkdir = onPath(func(fs vfs.FileSystem, p []string) error { return fs.Mkdir(p[0], 0o755) })
	rm    = onPath(func(fs vfs.FileSystem, p []string) error { return fs.Unlink(p[0]) })
	rmdir = onPath(func(fs vfs.FileSystem, p []string) error { return fs.Rmdir(p[0]) })
	mv    = onPath(func(fs vfs.FileSystem, p []string) error { return fs.Rename(p[0], p[1]) })
)

// stat prints a file's attributes and, on a DSFS, where its data is.
func stat(e *Env, args []string) error {
	p, err := e.path(args[0])
	if err != nil {
		return err
	}
	var fi vfs.FileInfo
	if err := e.retry(func() (err error) { fi, err = e.FS.Stat(p); return }); err != nil {
		return err
	}
	kind := "file"
	if fi.IsDir {
		kind = "dir"
	}
	fmt.Fprintf(e.Out, "%s %s size=%d mode=%o mtime=%s inode=%d\n",
		kind, fi.Name, fi.Size, fi.Mode, fi.ModTime().Format(time.RFC3339), fi.Inode)
	if st, rest, err := e.Stack(p); err == nil && st.Dist != nil && !fi.IsDir {
		if stub, err := st.Dist.ReadStub(rest); err == nil {
			fmt.Fprintf(e.Out, "data on %s at %s\n", stub.Server, stub.Path)
		}
	}
	return nil
}

func statfs(e *Env, _ []string) error {
	st, _, err := e.stack("")
	if err != nil {
		return err
	}
	var info vfs.FSInfo
	if err := e.retry(func() (err error) { info, err = st.FS.StatFS(); return }); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "total %d bytes, free %d bytes over %d servers\n",
		info.TotalBytes, info.FreeBytes, st.Servers)
	return nil
}

func whoami(e *Env, _ []string) error {
	st, _, err := e.server("")
	if err != nil {
		return err
	}
	return e.retry(func() error {
		who, err := st.Client.Whoami()
		if err == nil {
			fmt.Fprintln(e.Out, who)
		}
		return err
	})
}

func getacl(e *Env, args []string) error {
	st, p, err := e.server(args[0])
	if err != nil {
		return err
	}
	var lines []string
	if err := e.retry(func() (err error) { lines, err = st.Client.GetACL(p); return }); err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintln(e.Out, l)
	}
	return nil
}

func setacl(e *Env, args []string) error {
	st, p, err := e.server(args[0])
	if err != nil {
		return err
	}
	return st.Client.SetACL(p, args[1], args[2])
}

// scrub audits a mirror by cross-replica digest comparison and, with
// -repair, rewrites divergent copies from the majority copy (ties
// broken by newest mtime). It fails when divergence remains.
func scrub(fl *flag.FlagSet) Run {
	repair := fl.Bool("repair", false, "")
	algo := fl.String("algo", "", "")
	return func(e *Env, args []string) error {
		st, root, err := e.stack(optional(args))
		if err == nil && st.Mirror == nil {
			err = errors.New("scrub: not a mirror")
		}
		if err != nil {
			return err
		}
		rep, err := st.Mirror.Scrub(context.Background(),
			abstraction.ScrubOptions{Root: root, Algo: *algo, Repair: *repair})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "scrub: %d files, %d divergent, %d replica copies repaired\n",
			rep.FilesScanned, rep.Divergent, rep.Repaired)
		unrepaired := rep.Divergent
		for _, f := range rep.Files {
			fmt.Fprintf(e.Out, "  %s winner=replica%d repaired=%v\n", f.Path, f.Winner, f.Repaired)
			for i, d := range f.Digests {
				if d == "" {
					d = "(unavailable)"
				}
				fmt.Fprintf(e.Out, "    replica%d %s\n", i, d)
			}
			if f.Err != "" {
				fmt.Fprintf(e.Out, "    error: %s\n", f.Err)
			} else if *repair {
				unrepaired--
			}
		}
		for _, msg := range rep.Errors {
			fmt.Fprintf(e.Out, "  error: %s\n", msg)
		}
		if unrepaired > 0 || len(rep.Errors) > 0 {
			return fmt.Errorf("scrub: %d divergent files not repaired, %d errors", unrepaired, len(rep.Errors))
		}
		return nil
	}
}

// fsck checks a DSFS: its tree of stubs and stripe descriptors against
// the data on its servers. It fails when problems remain.
func fsck(fl *flag.FlagSet) Run {
	var opts abstraction.FsckOptions
	fl.BoolVar(&opts.RemoveDangling, "remove-dangling", false, "")
	fl.BoolVar(&opts.RemoveOrphans, "remove-orphans", false, "")
	return func(e *Env, _ []string) error {
		st, _, err := e.stack("")
		if err == nil && st.Dist == nil {
			err = errors.New("fsck: not a dsfs")
		}
		if err != nil {
			return err
		}
		rep, err := st.Dist.Fsck(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(e.Out, rep)
		for _, l := range []struct {
			what  string
			paths []string
		}{
			{"dangling stub", rep.DanglingStubs}, {"bad stub", rep.BadStubs},
			{"orphaned data", rep.OrphanedData}, {"unreachable", rep.Unreachable},
			{"damaged stripe", rep.StripeDamaged},
		} {
			for _, p := range l.paths {
				fmt.Fprintf(e.Out, "  %s %s\n", l.what, p)
			}
		}
		for p, digests := range rep.StripeDigests {
			fmt.Fprintf(e.Out, "  stripe %s\n", p)
			for i, s := range digests {
				if s == "" {
					s = "(unavailable)"
				}
				fmt.Fprintf(e.Out, "    member%d %s\n", i, s)
			}
		}
		if !rep.Clean() {
			return errors.New("fsck: problems remain")
		}
		return nil
	}
}
