package chaos

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"tss/internal/abstraction"
	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/faultfs"
	"tss/internal/netsim"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// replicaName is replica i's symbolic address on the simulated network.
func replicaName(i int) string { return fmt.Sprintf("r%d.sim", i) }

// clientHost is client k's symbolic host identity; partitions key on
// the (client host, replica name) pair, so each client has its own
// links to sever.
func clientHost(k int) string { return fmt.Sprintf("c%d.sim", k) }

// serverSlot is one replica's server instance plus what is needed to
// crash and reboot it: the same root directory outlives the process.
type serverSlot struct {
	name string
	root string
	cfg  chirp.ServerConfig
	srv  *chirp.Server
	down bool
}

// clientStack is one client's complete view of the system: a chirp
// client per replica, a faultfs wrapper per client (its storage fault
// plane), and the quorum mirror on top.
type clientStack struct {
	host   string
	pools  []*chirp.Client
	faults []*faultfs.FS
	fs     *abstraction.MirrorFS
}

// stack is the full system under test.
type stack struct {
	net     *netsim.Network
	servers []*serverSlot
	clients []*clientStack
	clock   atomic.Int64
	dirs    []string
}

// bootServer starts (or reboots) slot's server on the simulated
// network. The previous instance, if any, must already be aborted.
func (s *stack) bootServer(slot *serverSlot) error {
	srv, err := chirp.NewServer(slot.root, slot.cfg)
	if err != nil {
		return err
	}
	l, err := s.net.Listen(slot.name)
	if err != nil {
		return err
	}
	go srv.Serve(l)
	slot.srv = srv
	slot.down = false
	return nil
}

// crashServer aborts slot's instance; open connections die abruptly.
func (s *stack) crashServer(slot *serverSlot) {
	if slot.down {
		return
	}
	slot.srv.Abort()
	slot.down = true
}

// buildStack assembles servers, client stacks, and fault planes for
// one run. All randomness below this point derives from cfg.Seed.
func buildStack(cfg Config) (*stack, error) {
	s := &stack{net: netsim.NewNetwork()}

	rootACL := &acl.List{}
	for k := 0; k < cfg.Clients; k++ {
		rootACL.Set("hostname:"+clientHost(k), acl.AllRights, 0)
	}
	for i := 0; i < cfg.Replicas; i++ {
		dir, err := os.MkdirTemp("", "tss-chaos-")
		if err != nil {
			s.close()
			return nil, err
		}
		s.dirs = append(s.dirs, dir)
		slot := &serverSlot{
			name: replicaName(i),
			root: dir,
			cfg: chirp.ServerConfig{
				Name:      replicaName(i),
				Owner:     auth.Subject("hostname:" + clientHost(0)),
				Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
				RootACL:   rootACL,
				LeaseTTL:  cfg.LeaseTTL,
			},
		}
		if err := s.bootServer(slot); err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, slot)
	}

	quorum := cfg.Replicas/2 + 1
	if cfg.NoQuorum {
		quorum = 0
	}
	for k := 0; k < cfg.Clients; k++ {
		cs := &clientStack{host: clientHost(k)}
		replicas := make([]vfs.FileSystem, cfg.Replicas)
		for i := 0; i < cfg.Replicas; i++ {
			host, name := cs.host, replicaName(i)
			pool, err := chirp.Dial(chirp.ClientConfig{
				Dial: func() (net.Conn, error) {
					return s.net.DialFrom(host, name, netsim.Loopback)
				},
				Credentials: []auth.Credential{auth.HostnameCredential{}},
				Timeout:     2 * time.Second,
				PoolSize:    2,
			})
			if err != nil {
				s.close()
				return nil, err
			}
			ff := faultfs.New(pool)
			ff.SetClock(s.clock.Load)
			cs.pools = append(cs.pools, pool)
			cs.faults = append(cs.faults, ff)
			replicas[i] = ff
		}
		// Breakers are tuned fast so trips, probes, and readmissions all
		// happen within a timeline's few hundred milliseconds of wall
		// time. Jitter keeps its default: determinism comes from the
		// seeded Rand, not from disabling the mechanism.
		seed := cfg.Seed ^ int64(k+1)*0x9e3779b9
		m, err := abstraction.NewMirrorOptions(abstraction.MirrorOptions{
			Breaker: resilient.BreakerConfig{
				Threshold:   2,
				ReprobeBase: 5 * time.Millisecond,
				ReprobeMax:  40 * time.Millisecond,
				Rand:        seededRand(seed),
			},
			WriteQuorum: quorum,
			VerifyReads: !cfg.NoVerify,
		}, replicas...)
		if err != nil {
			s.close()
			return nil, err
		}
		cs.fs = m
		s.clients = append(s.clients, cs)
	}
	return s, nil
}

// close releases every resource the stack created.
func (s *stack) close() {
	for _, cs := range s.clients {
		for _, p := range cs.pools {
			p.Close()
		}
	}
	for _, slot := range s.servers {
		if slot.srv != nil && !slot.down {
			slot.srv.Abort()
		}
	}
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// forEachTarget expands an event's Client/Replica selectors (with -1
// as "all") into concrete (client, replica) pairs.
func (s *stack) forEachTarget(ev Event, f func(k, i int)) {
	for k := range s.clients {
		if ev.Client >= 0 && ev.Client != k {
			continue
		}
		for i := range s.servers {
			if ev.Replica >= 0 && ev.Replica != i {
				continue
			}
			f(k, i)
		}
	}
}
