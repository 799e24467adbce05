// Tss is the client command-line tool: it performs file operations on
// Chirp servers without mounting anything, using the same client
// library the abstractions use.
//
//	tss ls     host:9094 /
//	tss cat    host:9094 /data/results.txt
//	tss put    host:9094 /data/up.bin  local.bin
//	tss get    host:9094 /data/up.bin  local.copy
//	tss cp     host:9094:/data/a.bin   local.copy
//	tss mkdir  host:9094 /data/newdir
//	tss rm     host:9094 /data/old.bin
//	tss rmdir  host:9094 /data/newdir
//	tss mv     host:9094 /a /b
//	tss stat   host:9094 /data
//	tss statfs host:9094
//	tss whoami host:9094
//	tss getacl host:9094 /data
//	tss setacl host:9094 /data 'hostname:*.cse.nd.edu' 'v(rwl)'
//	tss sum    host:9094 /data/up.bin
//	tss scrub  -repair hostA:9094 hostB:9094 hostC:9094
//	tss fsck   meta:9094 /dsfs dataA:9094 /data dataB:9094 /data
//
// All transfer verbs (get, put, cp) share one flag set: -P <n> fans a
// large transfer out as n parallel multipart streams over a connection
// pool, -chunk <size> sets the multipart chunk size, -verify checks
// digests end to end, and -pool N sizes the pooled transport (raised
// to -P automatically, so the parallel chunks actually get their own
// connections). cp accepts host:port:/path remote specs on either
// side, so remote-to-remote copies stream through the client without
// a temporary file.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tss/internal/auth"
	"tss/internal/cache"
	"tss/internal/chirp"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// errDone ends leading-flag parsing when the verb is reached.
var errDone = errors.New("done")

// transport is the client surface the CLI drives, satisfied by both the
// single-connection *chirp.Client and the multi-connection *chirp.Pool.
type transport interface {
	vfs.FileSystem
	GetFile(path string, w io.Writer) (int64, error)
	Checksum(path, algo string) (string, error)
	Whoami() (auth.Subject, error)
	GetACL(path string) ([]string, error)
	SetACL(path, subject, rights string) error
	Reconnect() error
	Close() error
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tss [-ticket FILE] [-timeout DUR] [-retries N] [-retry-base DUR] [-retry-budget N] [-pool N] [-P N] [-chunk SIZE] [-verify] <ls|cat|put|get|sum|mkdir|rm|rmdir|mv|stat|statfs|whoami|getacl|setacl> host:port [args...]")
	fmt.Fprintln(os.Stderr, "       tss [flags] cp <src> <dst>   (each side a local path or host:port:/path)")
	fmt.Fprintln(os.Stderr, "       tss [flags] scrub [-repair] [-algo A] [-root DIR] host:port host:port [...]")
	fmt.Fprintln(os.Stderr, "       tss [flags] fsck [-remove-dangling] [-remove-orphans] meta-host:port meta-dir data-host:port data-dir [...]")
	fmt.Fprintln(os.Stderr, "  -timeout DUR     per-RPC deadline (default 30s)")
	fmt.Fprintln(os.Stderr, "  -retries N       reconnect-and-retry reads and transfer chunks N times on failure (default 2)")
	fmt.Fprintln(os.Stderr, "  -retry-base DUR  first retry backoff, doubled per attempt with jitter (default 100ms)")
	fmt.Fprintln(os.Stderr, "  -retry-budget N  token-bucket cap on total retries across the run; successes earn")
	fmt.Fprintln(os.Stderr, "                   tokens back, so a retry storm cannot sustain itself (0 = uncapped)")
	fmt.Fprintln(os.Stderr, "  -pool N          use up to N pooled connections instead of one (default 1, raised to -P)")
	fmt.Fprintln(os.Stderr, "  -P N             split large get/put/cp transfers into N parallel multipart streams")
	fmt.Fprintln(os.Stderr, "  -chunk SIZE      multipart chunk size, with optional K/M/G suffix (default 8M)")
	fmt.Fprintln(os.Stderr, "  -verify          checksum transfers end to end (falls back on old servers)")
	fmt.Fprintln(os.Stderr, "  -cache           cache attrs, dirents, and pages client-side, kept consistent by server leases")
	fmt.Fprintln(os.Stderr, "  -attr-ttl DUR    cache: attr/dirent time-to-live (default 2s)")
	fmt.Fprintln(os.Stderr, "  -wb              cache: buffer writes for write-back instead of writing through")
	os.Exit(2)
}

// parseSize parses a byte count with an optional K/M/G suffix.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func main() {
	argv := os.Args[1:]
	creds := []auth.Credential{
		auth.HostnameCredential{},
		auth.UnixCredential{},
	}
	timeout := 30 * time.Second
	retries := 2
	retryBase := 100 * time.Millisecond
	var retryTokens float64
	poolSize := 1
	par := 1
	var chunkSize int64
	verify := false
	cacheOn := false
	writeBack := false
	var attrTTL time.Duration
	// Leading flags, parsed by hand so the verb-first grammar survives.
	for len(argv) >= 1 {
		if argv[0] == "-verify" {
			verify = true
			argv = argv[1:]
			continue
		}
		if argv[0] == "-cache" {
			cacheOn = true
			argv = argv[1:]
			continue
		}
		if argv[0] == "-wb" {
			writeBack = true
			argv = argv[1:]
			continue
		}
		if len(argv) < 2 {
			break
		}
		var err error
		switch argv[0] {
		case "-ticket":
			// Authenticate with a minted ticket (see tssticket) before
			// falling back to hostname/unix.
			var data []byte
			if data, err = os.ReadFile(argv[1]); err == nil {
				var cred auth.Credential
				if cred, err = auth.ImportBearer(data); err == nil {
					creds = append([]auth.Credential{cred}, creds...)
				}
			}
		case "-timeout":
			timeout, err = time.ParseDuration(argv[1])
		case "-retries":
			retries, err = strconv.Atoi(argv[1])
		case "-retry-base":
			retryBase, err = time.ParseDuration(argv[1])
		case "-retry-budget":
			retryTokens, err = strconv.ParseFloat(argv[1], 64)
		case "-pool":
			poolSize, err = strconv.Atoi(argv[1])
		case "-P":
			par, err = strconv.Atoi(argv[1])
		case "-chunk":
			chunkSize, err = parseSize(argv[1])
		case "-attr-ttl":
			attrTTL, err = time.ParseDuration(argv[1])
		default:
			err = errDone
		}
		if err == errDone {
			break
		}
		if err != nil {
			fatal(fmt.Errorf("%s %s: %v", argv[0], argv[1], err))
		}
		argv = argv[2:]
	}
	if len(argv) < 2 {
		usage()
	}
	if par < 1 {
		par = 1
	}
	// Parallel multipart streams need their own connections: a -P wider
	// than the pool would serialize on the transport anyway.
	if par > poolSize {
		poolSize = par
	}
	// One retry policy per invocation, from -retries, -retry-base and
	// -retry-budget. Transfer verbs route through the unified copy
	// engine, which picks single-shot or parallel multipart from the
	// flags and what the server supports, and drives each operation of a
	// transfer under the policy.
	policy := resilient.Policy{Attempts: retries, Base: retryBase, Max: 2 * time.Second, Jitter: 0.2}
	if retryTokens > 0 {
		policy.RetryBudget = resilient.NewRetryBudget(retryTokens, 0)
	}
	if err := policy.Validate(); err != nil {
		fatal(err)
	}
	copyOpts := vfs.CopyOptions{Concurrency: par, ChunkSize: chunkSize, Verify: verify}
	if retries > 0 {
		copyOpts.Retry = policy
	}
	// The maintenance verbs take several server addresses, not one, and
	// cp takes endpoint specs rather than a leading address.
	switch argv[0] {
	case "scrub":
		runScrub(argv[1:], creds, timeout)
		return
	case "fsck":
		runFsck(argv[1:], creds, timeout)
		return
	case "cp":
		runCp(argv[1:], creds, timeout, poolSize, copyOpts)
		return
	}
	verb, addr, args := argv[0], argv[1], argv[2:]

	cfg := chirp.ClientConfig{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		},
		Credentials: creds,
		Timeout:     timeout,
		PoolSize:    poolSize,
		Verify:      verify,
	}
	var client transport
	var err error
	if poolSize > 1 {
		client, err = chirp.NewPool(cfg)
	} else {
		client, err = chirp.Dial(cfg)
	}
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	// With -cache, namespace verbs go through the lease-consistent
	// caching tier; transfer and identity verbs keep the raw transport
	// (their capability fast paths stream around a page cache anyway).
	// The cache's Close releases the granted leases.
	var view vfs.FileSystem = client
	if cacheOn {
		cfs := cache.New(client, cache.Options{
			AttrTTL:      attrTTL,
			WriteThrough: !writeBack,
			Verify:       verify,
		})
		defer cfs.Close()
		view = cfs
	}

	// retry reconnects and re-issues idempotent operations on transport
	// failure, with jittered exponential backoff; exhaustion surfaces as
	// ETIMEDOUT (§6), except pushback exhaustion, which keeps EAGAIN so
	// callers can see the overload signal. Non-idempotent verbs (put,
	// mkdir, mv, ...) run once: blind replay could double-apply.
	retry := func(op func() error) error { return policy.Run(client, op, nil) }

	need := func(n int) {
		if len(args) != n {
			usage()
		}
	}

	switch verb {
	case "ls":
		need(1)
		var ents []vfs.DirEntry
		err := retry(func() error {
			var e error
			ents, e = view.ReadDir(args[0])
			return e
		})
		if err != nil {
			fatal(err)
		}
		for _, e := range ents {
			kind := "-"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %s\n", kind, e.Name)
		}
	case "cat":
		need(1)
		if _, err := client.GetFile(args[0], os.Stdout); err != nil {
			fatal(err)
		}
	case "put":
		need(2)
		src, err := localLoc(args[1])
		if err != nil {
			fatal(err)
		}
		opts := copyOpts
		opts.Mode = 0o644
		if _, err := vfs.Copy(context.Background(),
			vfs.Loc{FS: client, Path: args[0]}, src, opts); err != nil {
			fatal(err)
		}
	case "get":
		need(2)
		dst, err := localLoc(args[1])
		if err != nil {
			fatal(err)
		}
		if _, err := vfs.Copy(context.Background(),
			dst, vfs.Loc{FS: client, Path: args[0]}, copyOpts); err != nil {
			fatal(err)
		}
	case "sum":
		if len(args) != 1 && len(args) != 2 {
			usage()
		}
		algo := ""
		if len(args) == 2 {
			algo = args[1]
		}
		var sum string
		err := retry(func() error {
			var e error
			sum, e = client.Checksum(args[0], algo)
			return e
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(sum)
	case "mkdir":
		need(1)
		if err := view.Mkdir(args[0], 0o755); err != nil {
			fatal(err)
		}
	case "rm":
		need(1)
		if err := view.Unlink(args[0]); err != nil {
			fatal(err)
		}
	case "rmdir":
		need(1)
		if err := view.Rmdir(args[0]); err != nil {
			fatal(err)
		}
	case "mv":
		need(2)
		if err := view.Rename(args[0], args[1]); err != nil {
			fatal(err)
		}
	case "stat":
		need(1)
		var fi vfs.FileInfo
		err := retry(func() error {
			var e error
			fi, e = view.Stat(args[0])
			return e
		})
		if err != nil {
			fatal(err)
		}
		printStat(os.Stdout, fi)
	case "statfs":
		need(0)
		var info vfs.FSInfo
		err := retry(func() error {
			var e error
			info, e = view.StatFS()
			return e
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("total %d bytes, free %d bytes\n", info.TotalBytes, info.FreeBytes)
	case "whoami":
		need(0)
		var who auth.Subject
		err := retry(func() error {
			var e error
			who, e = client.Whoami()
			return e
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(who)
	case "getacl":
		need(1)
		var lines []string
		err := retry(func() error {
			var e error
			lines, e = client.GetACL(args[0])
			return e
		})
		if err != nil {
			fatal(err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	case "setacl":
		need(3)
		if err := client.SetACL(args[0], args[1], args[2]); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

// localLoc wraps a host path as a copy-engine endpoint: a LocalFS
// rooted at the containing directory, so the engine's capability probe
// and positional fallback work on the local side like any other.
func localLoc(path string) (vfs.Loc, error) {
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

// splitRemote recognizes host:port:/path endpoint specs. Anything else
// — including Windows-style or relative paths — is a local path.
func splitRemote(arg string) (addr, path string, ok bool) {
	parts := strings.SplitN(arg, ":", 3)
	if len(parts) == 3 && parts[0] != "" && parts[1] != "" && strings.HasPrefix(parts[2], "/") {
		return parts[0] + ":" + parts[1], parts[2], true
	}
	return "", "", false
}

// runCp copies between any two endpoints, each a local path or a
// host:port:/path remote spec, through the same engine as get/put.
// Remote-to-remote copies stream through this client chunk by chunk
// without a temporary file; a repeated address shares one transport.
func runCp(args []string, creds []auth.Credential, timeout time.Duration, poolSize int, opts vfs.CopyOptions) {
	if len(args) != 2 {
		usage()
	}
	clients := make(map[string]transport)
	dialOne := func(addr string) transport {
		if c, ok := clients[addr]; ok {
			return c
		}
		cfg := chirp.ClientConfig{
			Dial: func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 10*time.Second)
			},
			Credentials: creds,
			Timeout:     timeout,
			PoolSize:    poolSize,
			Verify:      opts.Verify,
		}
		var c transport
		var err error
		if poolSize > 1 {
			c, err = chirp.NewPool(cfg)
		} else {
			c, err = chirp.Dial(cfg)
		}
		if err != nil {
			fatal(err)
		}
		clients[addr] = c
		return c
	}
	locOf := func(arg string) vfs.Loc {
		if addr, path, ok := splitRemote(arg); ok {
			return vfs.Loc{FS: dialOne(addr), Path: path}
		}
		loc, err := localLoc(arg)
		if err != nil {
			fatal(err)
		}
		return loc
	}
	src := locOf(args[0])
	dst := locOf(args[1])
	if _, err := vfs.Copy(context.Background(), dst, src, opts); err != nil {
		fatal(err)
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			fatal(err)
		}
	}
}

func printStat(w io.Writer, fi vfs.FileInfo) {
	kind := "file"
	if fi.IsDir {
		kind = "dir"
	}
	fmt.Fprintf(w, "%s %s size=%d mode=%o mtime=%s inode=%d\n",
		kind, fi.Name, fi.Size, fi.Mode, fi.ModTime().Format(time.RFC3339), fi.Inode)
}

// exitCode maps a failure to the process exit status, keeping the
// transient overload conditions distinguishable from hard failure so
// scripts can react: EAGAIN — the server shed the request — exits 75
// (EX_TEMPFAIL, "try again later"), and ESHUTDOWN — the server is
// draining — exits 69 (EX_UNAVAILABLE). Everything else is the
// generic 1.
func exitCode(err error) int {
	switch vfs.AsErrno(err) {
	case vfs.EAGAIN:
		return 75
	case vfs.ESHUTDOWN:
		return 69
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tss: %v\n", err)
	os.Exit(exitCode(err))
}
