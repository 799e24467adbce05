// Tss is the client command-line tool: it runs one verb on a storage
// stack without mounting anything, through the same libraries the
// abstractions use. A stack is named by a spec (internal/stackspec):
// a bare host:port is one Chirp server.
//
//	tss ls     host:9094 /
//	tss cat    host:9094 /data/results.txt
//	tss put    host:9094 /data/up.bin  local.bin
//	tss get    host:9094 /data/up.bin  local.copy
//	tss cp     host:9094:/data/a.bin   local.copy
//	tss stat   'dsfs://meta:9094/tree?data=n0=dataA:9094/vol,n1=dataB:9094/vol' /f
//	tss setacl chirp://host:9094/data / 'hostname:*.cse.nd.edu' 'v(rwl)'
//	tss scrub  -repair 'mirror:(hostA:9094,hostB:9094,hostC:9094)'
//	tss fsck   -remove-dangling 'dsfs://meta:9094/tree?data=n0=dataA:9094/vol'
//
// Only put and mkdir (and the destination of cp) may start a DSFS
// tree; every other verb needs the stack to exist, so a misspelt spec
// fails with ENOENT instead of leaving an empty tree behind.
//
// All transfer verbs (get, put, cp) share one flag set: -P <n> fans a
// large transfer out as n parallel multipart streams over a connection
// pool, -chunk <size> sets the multipart chunk size, -verify checks
// digests end to end, and -pool N sizes the transport (raised to -P
// automatically, so the parallel chunks actually get their own
// connections). cp takes SPEC:/PATH endpoints on either side, so
// remote-to-remote copies stream through the client without a
// temporary file.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tss/internal/auth"
	"tss/internal/cache"
	"tss/internal/chirp"
	"tss/internal/cli"
	"tss/internal/resilient"
	"tss/internal/stackspec"
	"tss/internal/vfs"
)

var flags = flag.NewFlagSet("tss", flag.ExitOnError)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tss [flags] VERB [verb flags] SPEC [args...]")
	fmt.Fprintln(os.Stderr, "       tss [flags] cp SRC DST   (each a local path or SPEC:/PATH)")
	fmt.Fprintln(os.Stderr, "SPEC: host:port[/dir] | chirp://host:port[/dir] | mirror:(SPEC,...)")
	fmt.Fprintln(os.Stderr, "      | dsfs://host:port[/tree]?data=name=host:port[/dir],...")
	fmt.Fprintln(os.Stderr, "verbs:")
	cli.Usage(os.Stderr, "SPEC ")
	fmt.Fprintln(os.Stderr, "flags:")
	flags.PrintDefaults()
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
	flags.Usage = usage
	ticket := flags.String("ticket", "", "authenticate with this ticket file (see tssticket) before hostname/unix")
	timeout := flags.Duration("timeout", 30*time.Second, "per-RPC deadline")
	retries := flags.Int("retries", 2, "reconnect-and-retry reads and transfer chunks N times on failure")
	retryBase := flags.Duration("retry-base", 100*time.Millisecond, "first retry backoff, doubled per attempt with jitter")
	retryTokens := flags.Float64("retry-budget", 0, "token-bucket cap on total retries across the run; successes earn\n"+
		"tokens back, so a retry storm cannot sustain itself (0 = uncapped)")
	poolSize := flags.Int("pool", 1, "use up to N pooled connections instead of one (raised to -P)")
	par := flags.Int("P", 1, "split large get/put/cp transfers into N parallel multipart streams")
	var chunkSize int64
	flags.Func("chunk", "multipart chunk size, with optional K/M/G suffix (default 8M)", func(s string) (err error) {
		chunkSize, err = parseSize(s)
		return err
	})
	verify := flags.Bool("verify", false, "checksum transfers end to end (falls back on old servers)")
	cacheOn := flags.Bool("cache", false, "cache attrs, dirents, and pages client-side, kept consistent by server leases")
	attrTTL := flags.Duration("attr-ttl", 0, "cache: attr/dirent time-to-live (default 2s)")
	writeBack := flags.Bool("wb", false, "cache: buffer writes for write-back instead of writing through")
	flags.Parse(os.Args[1:])
	if flags.NArg() < 2 {
		usage()
	}

	var creds []auth.Credential
	if *ticket != "" {
		data, err := os.ReadFile(*ticket)
		if err != nil {
			fatal(fmt.Errorf("-ticket: %w", err))
		}
		cred, err := auth.ImportBearer(data)
		if err != nil {
			fatal(fmt.Errorf("-ticket %s: %w", *ticket, err))
		}
		creds = append(creds, cred)
	}
	// Parallel multipart streams need their own connections: a -P wider
	// than the pool would serialize on the transport anyway.
	*par = max(*par, 1)
	b := &stackspec.Builder{Dial: stackspec.TCP(chirp.ClientConfig{
		Credentials: creds,
		Timeout:     *timeout,
		PoolSize:    max(*poolSize, *par),
		Verify:      *verify,
	})}
	// One retry policy per invocation, from -retries, -retry-base and
	// -retry-budget. Transfers route through the copy engine, which
	// picks single-shot or parallel multipart from the flags and what
	// the server supports and drives each of their operations under the
	// policy; the idempotent verbs run under it as a whole. Retries
	// reconnect and re-issue on transport failure, with jittered
	// exponential backoff; exhaustion surfaces as ETIMEDOUT (§6), except
	// pushback exhaustion, which keeps EAGAIN so callers can see the
	// overload signal. Non-idempotent verbs (put, mkdir, mv, ...) run
	// once: blind replay could double-apply.
	policy := resilient.Policy{Attempts: *retries, Base: *retryBase, Max: 2 * time.Second, Jitter: 0.2}
	if *retryTokens > 0 {
		policy.RetryBudget = resilient.NewRetryBudget(*retryTokens, 0)
	}
	if err := policy.Validate(); err != nil {
		fatal(err)
	}
	copyOpts := vfs.CopyOptions{Concurrency: *par, ChunkSize: chunkSize, Verify: *verify}
	if *retries > 0 {
		copyOpts.Retry = policy
	}

	if flags.Arg(0) == "cp" {
		if flags.NArg() != 3 {
			usage()
		}
		// Each side dials its own transports. A destination without part
		// verbs (a mirror, a DSFS) writes through descriptors pinned to
		// their connections, and one the source's part stream holds
		// would wait on itself.
		dstB := &stackspec.Builder{Dial: b.Dial}
		src, dst := endpoint(b.Open, flags.Arg(1)), endpoint(dstB.Build, flags.Arg(2))
		if _, err := vfs.Copy(context.Background(), dst, src, copyOpts); err != nil {
			fatal(err)
		}
		for _, b := range []*stackspec.Builder{b, dstB} {
			if err := b.Close(); err != nil {
				fatal(err)
			}
		}
		return
	}
	run, args, err := cli.Lookup(flags.Arg(0), flags.Args()[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "tss: %v\n", err)
	}
	if err != nil || len(args) < 1 {
		usage()
	}
	sp, err := stackspec.Parse(args[0])
	if err != nil {
		fatal(err)
	}
	build := b.Open
	if cli.Creates(flags.Arg(0)) {
		build = b.Build
	}
	st, err := build(sp)
	if err != nil {
		fatal(err)
	}
	env := &cli.Env{
		FS:    st.FS,
		Out:   os.Stdout,
		Stack: func(p string) (*stackspec.Stack, string, error) { return st, p, nil },
		Copy:  copyOpts,
		Retry: func(op func() error) error { return policy.Run(st.FS, op, nil) },
	}
	// With -cache, every verb goes through the lease-consistent caching
	// tier; its Close writes back and releases the granted leases.
	var cfs *cache.FS
	if *cacheOn {
		cfs = cache.New(st.FS, cache.Options{AttrTTL: *attrTTL, WriteThrough: !*writeBack, Verify: *verify})
		env.FS = cfs
	}
	err = run(env, args[1:])
	if cfs != nil {
		if cerr := cfs.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

// endpoint resolves a cp argument: SPEC:/PATH names a file on the
// stack build makes of SPEC, anything else a local path.
func endpoint(build func(stackspec.Spec) (*stackspec.Stack, error), arg string) vfs.Loc {
	if sp, path, ok := stackspec.Cut(arg); ok {
		st, err := build(sp)
		if err != nil {
			fatal(err)
		}
		return vfs.Loc{FS: st.FS, Path: path}
	}
	loc, err := cli.LocalLoc(arg)
	if err != nil {
		fatal(err)
	}
	return loc
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
