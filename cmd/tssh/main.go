// Tssh is an interactive shell over the TSS adapter: mount any storage
// stack anywhere in a private namespace and browse it with familiar
// commands — the user-facing face of §6's adapter, without kernel
// involvement. A stack is named by a spec (internal/stackspec), and
// every command but the shell's own runs through the verb table tss
// uses (internal/cli), with paths taken against the working directory.
// A mount creates nothing: a DSFS tree must already exist, and tss
// mkdir or put starts one.
//
//	$ tssh
//	tss> mount /data chirp://localhost:9094
//	tss> mount /pool dsfs://localhost:9094/tree?data=n0=localhost:9095/vol
//	tss> cd /data
//	tss> ls
//	tss> put backups/report.pdf report.pdf
//	tss> cat backups/report.pdf > /dev/null
//	tss> exit
//
// Commands are also accepted on stdin non-interactively:
//
//	echo "mount /d chirp://host:9094\nls /d" | tssh
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tss/internal/adapter"
	"tss/internal/chirp"
	"tss/internal/cli"
	"tss/internal/pathutil"
	"tss/internal/stackspec"
	"tss/internal/vfs"
)

type shell struct {
	a      *adapter.Adapter
	b      *stackspec.Builder
	stacks map[string]*stackspec.Stack // by mount prefix
	cwd    string
	out    io.Writer
}

func main() {
	sh := &shell{
		a:      adapter.New(adapter.Config{}),
		b:      &stackspec.Builder{Dial: stackspec.TCP(chirp.ClientConfig{Timeout: 30 * time.Second})},
		stacks: make(map[string]*stackspec.Stack),
		cwd:    "/",
		out:    os.Stdout,
	}
	defer sh.b.Close()

	interactive := false
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		interactive = true
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if interactive {
			fmt.Fprint(sh.out, "tss> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "exit" || line == "quit" {
			return
		}
		if err := sh.exec(strings.Fields(line)); err != nil {
			fmt.Fprintf(os.Stderr, "tssh: %v\n", err)
			if !interactive {
				sh.b.Close()
				os.Exit(1)
			}
		}
	}
}

func (sh *shell) exec(fields []string) error {
	cmd, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: wrong number of arguments", cmd)
		}
		return nil
	}
	switch cmd {
	case "help":
		fmt.Fprintln(sh.out, `commands:
  mount LOGICAL SPEC   attach a stack: host:port[/dir], chirp://host:port[/dir],
                       dsfs://host:port[/tree]?data=name=host:port[/dir],...
                       or mirror:(SPEC,...)
  umount LOGICAL | mounts | cd DIR | pwd | exit`)
		cli.Usage(sh.out, "")
		return nil

	case "mount":
		if err := need(2); err != nil {
			return err
		}
		prefix, err := pathutil.Norm(args[0])
		if err != nil {
			return vfs.EINVAL
		}
		sp, err := stackspec.Parse(args[1])
		if err != nil {
			return fmt.Errorf("mount: %w", err)
		}
		// A mount creates nothing, so a misspelt spec fails here
		// instead of mounting an empty tree.
		st, err := sh.b.Open(sp)
		if errors.Is(err, vfs.ENOENT) && sp.Scheme == "dsfs" {
			return fmt.Errorf("mount: %w (no DSFS tree there; tss mkdir SPEC DIR starts one)", err)
		}
		if err != nil {
			return fmt.Errorf("mount: %w", err)
		}
		if err := sh.a.MountFS(prefix, st.FS); err != nil {
			return fmt.Errorf("mount: %w", err)
		}
		sh.stacks[prefix] = st
		fmt.Fprintf(sh.out, "mounted %s on %s\n", args[1], prefix)
		return nil

	case "umount":
		if err := need(1); err != nil {
			return err
		}
		prefix, err := pathutil.Norm(args[0])
		if err != nil {
			return vfs.EINVAL
		}
		delete(sh.stacks, prefix)
		return sh.a.Unmount(prefix)

	case "mounts":
		for _, m := range sh.a.Mounts() {
			fmt.Fprintf(sh.out, "%s\n", m.Prefix)
		}
		return nil

	case "cd":
		if err := need(1); err != nil {
			return err
		}
		dir := pathutil.Join(sh.cwd, args[0])
		if strings.HasPrefix(args[0], "/") {
			dir = pathutil.Join(args[0])
		}
		fi, err := sh.a.Stat(dir)
		if err != nil {
			return err
		}
		if !fi.IsDir {
			return vfs.ENOTDIR
		}
		sh.cwd = dir
		return nil

	case "pwd":
		fmt.Fprintln(sh.out, sh.cwd)
		return nil
	}
	run, args, err := cli.Lookup(cmd, args)
	if err != nil {
		return fmt.Errorf("%v (try help)", err)
	}
	return run(&cli.Env{FS: sh.a, Cwd: sh.cwd, Out: sh.out, Stack: sh.stackAt}, args)
}

// stackAt finds the mounted stack that holds the namespace path p.
func (sh *shell) stackAt(p string) (*stackspec.Stack, string, error) {
	var best adapter.Mount
	for _, m := range sh.a.Mounts() {
		if pathutil.Within(m.Prefix, p) && len(m.Prefix) > len(best.Prefix) {
			best = m
		}
	}
	st, ok := sh.stacks[best.Prefix]
	if !ok {
		return nil, "", fmt.Errorf("%s: not on a mounted stack", p)
	}
	rest, _ := pathutil.Rebase(best.Prefix, p)
	return st, rest, nil
}
