// Chirpd deploys a Chirp personal file server: the single-command,
// no-privilege deployment of §4.
//
//	chirpd -root /scratch/export -addr :9094 \
//	       -acl 'hostname:*.cse.nd.edu=rwl' -acl 'unix:alice=rwlda' \
//	       -catalog catalog.host:9097
//
// The server exports -root over the Chirp protocol with hostname and
// unix authentication, enforces per-directory ACLs seeded from the
// -acl flags, and reports itself to each -catalog address by UDP.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/catalog"
	"tss/internal/chirp"
	"tss/internal/obs"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		root      = flag.String("root", ".", "directory to export")
		addr      = flag.String("addr", ":9094", "TCP listen address")
		name      = flag.String("name", "", "advertised server name (default: listen address)")
		owner     = flag.String("owner", "", "owner subject (default: unix:$USER)")
		interval  = flag.Duration("catalog-interval", 15*time.Second, "catalog report period")
		idle      = flag.Duration("idle-timeout", 0, "disconnect idle clients after this long (0 = never)")
		inflight  = flag.Int("max-inflight", 0, "admission control: serve at most N RPCs at once, shedding excess with EAGAIN (0 = unlimited)")
		sessions  = flag.Int("max-sessions", 0, "refuse new connections beyond N concurrent sessions (0 = unlimited)")
		queueWait = flag.Duration("queue-timeout", chirp.DefaultQueueTimeout, "how long an RPC may queue for an admission slot before being shed")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, let in-flight requests finish for this long before force-closing (0 = wait forever)")
		debugAddr = flag.String("debug-addr", "", "HTTP address serving /metrics (JSON registry snapshot) and /healthz (503 while draining); empty disables")
		verbose   = flag.Bool("v", false, "log connections")
	)
	var acls, catalogs, ticketIssuers multiFlag
	flag.Var(&acls, "acl", "root ACL entry as subject=rights (repeatable)")
	flag.Var(&catalogs, "catalog", "catalog host:port to report to by UDP (repeatable)")
	flag.Var(&ticketIssuers, "ticket-issuer", "hex public key of a trusted ticket issuer (repeatable; see tssticket)")
	flag.Parse()

	ownerSubject := *owner
	if ownerSubject == "" {
		user := os.Getenv("USER")
		if user == "" {
			user = "owner"
		}
		ownerSubject = "unix:" + user
	}

	rootACL := &acl.List{}
	for _, entry := range acls {
		subj, spec, ok := strings.Cut(entry, "=")
		if !ok {
			log.Fatalf("chirpd: bad -acl %q: want subject=rights", entry)
		}
		rights, reserve, err := acl.ParseSpec(spec)
		if err != nil {
			log.Fatalf("chirpd: bad -acl %q: %v", entry, err)
		}
		rootACL.Set(subj, rights, reserve)
	}

	metrics := obs.NewRegistry()
	cfg := chirp.ServerConfig{
		Name:         *name,
		Owner:        auth.Subject(ownerSubject),
		RootACL:      rootACL,
		IdleTimeout:  *idle,
		MaxInflight:  *inflight,
		MaxSessions:  *sessions,
		QueueTimeout: *queueWait,
		Metrics:      metrics,
		Verifiers: []auth.Verifier{
			&auth.HostnameVerifier{},
			&auth.UnixVerifier{},
		},
	}
	if len(ticketIssuers) > 0 {
		tv := &auth.TicketVerifier{}
		for _, hexKey := range ticketIssuers {
			pub, err := auth.ParseIssuerPublicKey(hexKey)
			if err != nil {
				log.Fatalf("chirpd: -ticket-issuer %q: %v", hexKey, err)
			}
			tv.Issuers = append(tv.Issuers, pub)
		}
		cfg.Verifiers = append(cfg.Verifiers, tv)
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("chirpd: %v", err)
	}
	if cfg.Name == "" {
		cfg.Name = l.Addr().String()
	}
	srv, err := chirp.NewServer(*root, cfg)
	if err != nil {
		log.Fatalf("chirpd: %v", err)
	}

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("chirpd: -debug-addr: %v", err)
		}
		handler := obs.Handler(metrics, func() (bool, string) {
			if srv.Draining() {
				return false, "draining"
			}
			return true, "ok"
		})
		fmt.Printf("chirpd: debug endpoints on http://%s/metrics\n", dl.Addr())
		go func() {
			if err := http.Serve(dl, handler); err != nil {
				log.Printf("chirpd: debug server: %v", err)
			}
		}()
	}

	if len(catalogs) > 0 {
		var sends []func([]byte) error
		for _, c := range catalogs {
			sends = append(sends, catalog.SendUDP(c))
		}
		rep := &catalog.Reporter{
			Describe: func() catalog.Report {
				r := srv.Report()
				r.Addr = l.Addr().String()
				return r
			},
			Send:     sends,
			Interval: *interval,
		}
		go rep.Run(make(chan struct{}))
	}

	// A signal starts a graceful drain: the listener closes (Serve
	// returns), in-flight requests run to completion within the drain
	// budget, and stragglers are force-closed when it expires.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		sig := <-sigc
		log.Printf("chirpd: %v: draining (budget %v)", sig, *drain)
		ctx := context.Background()
		if *drain > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *drain)
			defer cancel()
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("chirpd: drain incomplete: %v (%d connections force-closed)",
				err, srv.Stats.DrainForced.Load())
		}
	}()

	fmt.Printf("chirpd: exporting %s on %s as %s (owner %s)\n", *root, l.Addr(), cfg.Name, ownerSubject)
	if err := srv.Serve(l); err != nil {
		log.Fatalf("chirpd: %v", err)
	}
	<-drained
	fmt.Printf("chirpd: drained: %d connections, %d requests, %d force-closed\n",
		srv.Stats.Connections.Load(), srv.Stats.Requests.Load(),
		srv.Stats.DrainForced.Load())
}
