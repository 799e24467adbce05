package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// The overload scenarios exercise the server's admission control and
// the clients' retry budgets end to end (DESIGN.md §15): a closed-loop
// fleet offers several times the server's capacity, the server sheds
// the excess with EAGAIN, and the clients' budgeted, full-jitter
// retries must keep goodput near capacity instead of collapsing into
// a retry storm.
//
// Unlike the quorum-mirror timelines, both scenarios run against a
// single chirp server whose capacity is made scarce on purpose: bulk
// request bodies arrive over a bandwidth-shaped simulated link, so an
// admitted write pins its admission slot for a real, controlled
// duration while control-plane RPCs stay cheap.
//
//   - overload: 4x-capacity closed loop. Invariants: the server sheds
//     (harness), goodput under overload stays at least half of the
//     unloaded baseline (goodput-collapse), control-plane p99 under
//     pressure is bounded relative to unloaded (control-plane-latency),
//     a graceful drain completes within its budget under fire
//     (drain-timeout), and every acknowledged write survives the drain
//     and a server reboot (acked-write-loss).
//   - retry-storm: the lone admission slot is pinned by a slow bulk
//     write while a fleet hammers the server. The shared retry budget
//     must cap aggregate retry volume by token conservation
//     (retry-amplification), the budget must actually exhaust
//     (harness), goodput must return once the hog finishes
//     (goodput-recovers), and acked writes must survive
//     (acked-write-loss).

const (
	overloadName   = "overload"
	retryStormName = "retry-storm"

	// overloadServer is the lone server's symbolic address; loadHost,
	// probeHost, and hogHost are the client identities. Bulk load rides
	// the shaped loadHost/hogHost links; the probe's control-plane RPCs
	// use their own unshaped link so their latency measures the server's
	// admission queue, not the congested uplink.
	overloadServer = "srv.sim"
	loadHost       = "load.sim"
	probeHost      = "probe.sim"
	hogHost        = "hog.sim"
)

func tempRoot() (string, error) { return os.MkdirTemp("", "tss-chaos-") }

func cleanupRoot(dir string) { os.RemoveAll(dir) }

// overloadACL grants every client identity the scenarios use full
// rights on the export root.
func overloadACL() *acl.List {
	l := &acl.List{}
	for _, host := range []string{loadHost, probeHost, hogHost} {
		l.Set("hostname:"+host, acl.AllRights, 0)
	}
	return l
}

// overloadStack is the single-server harness both scenarios share.
type overloadStack struct {
	net  *netsim.Network
	srv  *chirp.Server
	root string
	cfg  chirp.ServerConfig

	mu    sync.Mutex
	acked map[string][]byte
	paths []string
}

func buildOverloadStack(cfg Config, serverCfg chirp.ServerConfig) (*overloadStack, func(), error) {
	s := &overloadStack{net: netsim.NewNetwork(), acked: make(map[string][]byte)}
	root, err := tempRoot()
	if err != nil {
		return nil, nil, err
	}
	s.root = root
	serverCfg.Name = overloadServer
	serverCfg.Owner = auth.Subject("hostname:" + loadHost)
	serverCfg.Verifiers = []auth.Verifier{&auth.HostnameVerifier{}}
	serverCfg.RootACL = overloadACL()
	s.cfg = serverCfg
	srv, err := chirp.NewServer(root, serverCfg)
	if err != nil {
		cleanupRoot(root)
		return nil, nil, err
	}
	l, err := s.net.Listen(overloadServer)
	if err != nil {
		cleanupRoot(root)
		return nil, nil, err
	}
	go srv.Serve(l)
	s.srv = srv
	return s, func() { srv.Abort(); cleanupRoot(root) }, nil
}

// dial opens one client connection from the given host identity.
func (s *overloadStack) dial(host string, timeout time.Duration) (*chirp.Client, error) {
	return chirp.Dial(chirp.ClientConfig{
		Dial: func() (net.Conn, error) {
			return s.net.DialFrom(host, overloadServer, netsim.Loopback)
		},
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     timeout,
	})
}

func (s *overloadStack) recordAck(path string, content []byte) {
	s.mu.Lock()
	s.acked[path] = content
	s.paths = append(s.paths, path)
	s.mu.Unlock()
}

// verifyAcked reads every acknowledged write back through a fresh
// client and reports each loss to violate. When reboot is true the
// original instance has been shut down and a new server is booted over
// the same root first — the bytes must have outlived the process.
func (s *overloadStack) verifyAcked(reboot bool, violate func(step int64, invariant, detail string), step int64) error {
	if reboot {
		srv, err := chirp.NewServer(s.root, s.cfg)
		if err != nil {
			return fmt.Errorf("reboot: %w", err)
		}
		l, err := s.net.Listen(overloadServer)
		if err != nil {
			return fmt.Errorf("reboot listen: %w", err)
		}
		go srv.Serve(l)
		defer srv.Abort()
	}
	c, err := s.dial(probeHost, 5*time.Second)
	if err != nil {
		return fmt.Errorf("verify dial: %w", err)
	}
	defer c.Close()
	s.mu.Lock()
	paths := append([]string(nil), s.paths...)
	s.mu.Unlock()
	sort.Strings(paths)
	for _, path := range paths {
		want := s.acked[path]
		//lint:ignore copyapi the epilogue audits the raw read path, not the engine
		data, err := vfs.GetWholeFile(c, path)
		switch {
		case err != nil:
			violate(step, "acked-write-loss", fmt.Sprintf("%s unreadable after the run: %v", path, err))
		case !bytes.Equal(data, want):
			violate(step, "acked-write-loss", fmt.Sprintf("%s corrupt after the run: got %d bytes want %d", path, len(data), len(want)))
		}
	}
	return nil
}

// prober issues control-plane Stats on its own connection and collects
// per-success latencies into the slice selected by phase.
type prober struct {
	c    *chirp.Client
	mu   sync.Mutex
	lat  map[string][]time.Duration
	fail int64
}

func (p *prober) run(stop <-chan struct{}, phase *atomic.Value) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		name, _ := phase.Load().(string)
		if name == "" {
			continue
		}
		t0 := time.Now()
		if _, err := p.c.Stat("/"); err != nil {
			atomic.AddInt64(&p.fail, 1)
			continue
		}
		d := time.Since(t0)
		p.mu.Lock()
		p.lat[name] = append(p.lat[name], d)
		p.mu.Unlock()
	}
}

func (p *prober) p99(phase string) (time.Duration, int) {
	p.mu.Lock()
	lat := append([]time.Duration(nil), p.lat[phase]...)
	p.mu.Unlock()
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100], len(lat)
}

// runOverload executes the 4x-capacity closed-loop scenario.
func runOverload(cfg Config, tl Timeline) (*Result, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	const (
		maxInflight  = 4
		queueTimeout = 25 * time.Millisecond
		payload      = 24 << 10
		// bandwidth shapes the bulk uplink so one admitted write body
		// takes payload/bandwidth ≈ 16ms of real time on its slot.
		bandwidth       = int64(1500 << 10)
		baselineWorkers = 2
		overloadWorkers = 16 // 4x the admission capacity
		baselineFor     = 500 * time.Millisecond
		overloadFor     = 1000 * time.Millisecond
		drainBudget     = 5 * time.Second
	)
	s, cleanup, err := buildOverloadStack(cfg, chirp.ServerConfig{
		MaxInflight:  maxInflight,
		QueueTimeout: queueTimeout,
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	s.net.SetLinkProfileOneWay(loadHost, overloadServer, netsim.LinkProfile{Bandwidth: bandwidth})

	res := &Result{Timeline: tl.Name, Seed: cfg.Seed, Steps: tl.Steps}
	violate := func(step int64, invariant, detail string) {
		res.Violations = append(res.Violations, Violation{
			Timeline: tl.Name, Seed: cfg.Seed, Step: step,
			Invariant: invariant, Detail: detail,
		})
	}

	setup, err := s.dial(probeHost, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := setup.Mkdir("/data", 0o755); err != nil {
		setup.Close()
		return nil, fmt.Errorf("overload prologue: %w", err)
	}
	setup.Close()

	// The budget is deliberately roomy: this scenario measures admission
	// under honest load, and the budget should not bind. retry-storm is
	// where the budget is the mechanism under test.
	budget := resilient.NewRetryBudget(50, 0.1)
	var goodput atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(id int) {
		defer wg.Done()
		c, err := s.dial(loadHost, 2*time.Second)
		if err != nil {
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id+1)*7919))
		policy := resilient.Policy{
			Attempts: 8, Base: 2 * time.Millisecond, Max: 50 * time.Millisecond,
			Jitter: 1, RetryBudget: budget,
		}
		for seq := 0; !stop.Load(); seq++ {
			path := fmt.Sprintf("/data/w%02d-%06d", id, seq)
			content := make([]byte, payload)
			rng.Read(content)
			err := policy.Run(c, func() error {
				//lint:ignore copyapi the closed-loop workload issues bare single-shot writes on purpose
				return vfs.PutReader(c, path, 0o644, int64(len(content)), bytes.NewReader(content))
			}, nil)
			if err == nil {
				s.recordAck(path, content)
				goodput.Add(1)
				atomic.AddInt64(&res.Ops, 1)
			} else {
				atomic.AddInt64(&res.OpErrors, 1)
			}
		}
	}

	probeClient, err := s.dial(probeHost, 2*time.Second)
	if err != nil {
		return nil, err
	}
	pb := &prober{c: probeClient, lat: make(map[string][]time.Duration)}
	var phase atomic.Value
	phase.Store("")
	probeStop := make(chan struct{})
	go pb.run(probeStop, &phase)

	// Phase 1: unloaded baseline — the closed loop stays under capacity.
	for id := 0; id < baselineWorkers; id++ {
		wg.Add(1)
		go worker(id)
	}
	phase.Store("baseline")
	//lint:ignore sleepseam chaos pacing: phases are measured in wall time
	time.Sleep(baselineFor)
	baseOps := goodput.Swap(0)

	// Phase 2: overload — 4x capacity offered, excess shed with EAGAIN.
	for id := baselineWorkers; id < overloadWorkers; id++ {
		wg.Add(1)
		go worker(id)
	}
	phase.Store("overload")
	//lint:ignore sleepseam chaos pacing: phases are measured in wall time
	time.Sleep(overloadFor)
	overOps := goodput.Load()
	phase.Store("")
	close(probeStop)
	probeClient.Close()

	// Phase 3: graceful drain under fire. Workers stop issuing new ops,
	// but their in-flight bodies must run to completion inside the
	// budget while anything queued is failed fast with ESHUTDOWN.
	stop.Store(true)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	err = s.srv.Shutdown(ctx)
	cancel()
	if err != nil {
		violate(tl.Steps, "drain-timeout", fmt.Sprintf(
			"graceful drain did not complete in %v: %v (%d force-closed)",
			drainBudget, err, s.srv.Stats.DrainForced.Load()))
	}
	drainTook := time.Since(t0)
	wg.Wait()

	baseRate := float64(baseOps) / baselineFor.Seconds()
	overRate := float64(overOps) / overloadFor.Seconds()
	shed := s.srv.Stats.Shed.Load()
	res.AckedWrites = len(s.paths)
	p99Base, nBase := pb.p99("baseline")
	p99Over, nOver := pb.p99("overload")
	cfg.Logf("overload: baseline %.0f ops/s, overload %.0f ops/s, %d shed, control p99 %v→%v (%d/%d samples), drain %v",
		baseRate, overRate, shed, p99Base, p99Over, nBase, nOver, drainTook)

	if shed == 0 {
		violate(tl.Steps, "harness", "the server never shed a request — the scenario did not overload it")
	}
	if baseOps == 0 {
		violate(tl.Steps, "harness", "no baseline ops completed — cannot judge goodput")
	} else if overRate < 0.5*baseRate {
		violate(tl.Steps, "goodput-collapse", fmt.Sprintf(
			"goodput under 4x load fell to %.0f ops/s from a %.0f ops/s baseline (floor 50%%)", overRate, baseRate))
	}
	if nBase == 0 || nOver == 0 {
		violate(tl.Steps, "harness", fmt.Sprintf(
			"control-plane prober has too few samples (%d baseline, %d overload)", nBase, nOver))
	} else if p99Over > 5*p99Base+100*time.Millisecond {
		violate(tl.Steps, "control-plane-latency", fmt.Sprintf(
			"control-plane p99 under pressure %v exceeds 5x the unloaded %v (+100ms slack)", p99Over, p99Base))
	}
	if err := s.verifyAcked(true, violate, tl.Steps); err != nil {
		return nil, err
	}
	return res, nil
}

// runRetryStorm executes the budget-capped storm scenario.
func runRetryStorm(cfg Config, tl Timeline) (*Result, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	const (
		stormWorkers = 10
		budgetCap    = 12.0
		budgetEarn   = 0.1
		hogBytes     = 500 << 10
		hogBandwidth = int64(1 << 20) // ~500ms of slot hold
		recoveryFor  = 400 * time.Millisecond
		pace         = time.Millisecond
	)
	s, cleanup, err := buildOverloadStack(cfg, chirp.ServerConfig{
		MaxInflight:  1,
		QueueDepth:   1,
		QueueTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	s.net.SetLinkProfileOneWay(hogHost, overloadServer, netsim.LinkProfile{Bandwidth: hogBandwidth})

	res := &Result{Timeline: tl.Name, Seed: cfg.Seed, Steps: tl.Steps}
	violate := func(step int64, invariant, detail string) {
		res.Violations = append(res.Violations, Violation{
			Timeline: tl.Name, Seed: cfg.Seed, Step: step,
			Invariant: invariant, Detail: detail,
		})
	}

	setup, err := s.dial(probeHost, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := setup.Mkdir("/data", 0o755); err != nil {
		setup.Close()
		return nil, fmt.Errorf("retry-storm prologue: %w", err)
	}
	setup.Close()

	// One shared token bucket across the fleet makes the invariant an
	// exact conservation law: every performed retry withdrew a whole
	// token, and deposits only come from successes.
	budget := resilient.NewRetryBudget(budgetCap, budgetEarn)
	var retries, successes, recovered atomic.Int64
	var inRecovery, stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(id int) {
		defer wg.Done()
		c, err := s.dial(loadHost, 2*time.Second)
		if err != nil {
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id+1)*104729))
		policy := resilient.Policy{
			Attempts: 6, Base: 2 * time.Millisecond, Max: 30 * time.Millisecond,
			Jitter: 1, RetryBudget: budget,
			OnRetry: func(int, error) { retries.Add(1) },
		}
		for seq := 0; !stop.Load(); seq++ {
			path := fmt.Sprintf("/data/w%02d-%06d", id, seq)
			content := make([]byte, 4<<10)
			rng.Read(content)
			err := policy.Run(c, func() error {
				//lint:ignore copyapi the storm workload issues bare single-shot writes on purpose
				return vfs.PutReader(c, path, 0o644, int64(len(content)), bytes.NewReader(content))
			}, nil)
			if err == nil {
				s.recordAck(path, content)
				successes.Add(1)
				atomic.AddInt64(&res.Ops, 1)
				if inRecovery.Load() {
					recovered.Add(1)
				}
			} else {
				atomic.AddInt64(&res.OpErrors, 1)
			}
			// Closed-loop think time: a real client does not spin at MHz
			// on an error return, and the budget — not loop speed — is
			// what must bound retry volume.
			//lint:ignore sleepseam chaos pacing: per-iteration think time is part of the modeled workload
			time.Sleep(pace)
		}
	}

	// The hog pins the single admission slot with one slow bulk body,
	// starving everyone into EAGAIN for roughly hogBytes/hogBandwidth.
	hogDone := make(chan error, 1)
	go func() {
		c, err := s.dial(hogHost, 10*time.Second)
		if err != nil {
			hogDone <- err
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x4061))
		content := make([]byte, hogBytes)
		rng.Read(content)
		//lint:ignore copyapi the hog must be one long single-shot body pinning its admission slot
		err = vfs.PutReader(c, "/data/hog", 0o644, int64(len(content)), bytes.NewReader(content))
		if err == nil {
			s.recordAck("/data/hog", content)
		}
		hogDone <- err
	}()
	// Give the hog a head start so it owns the slot before the fleet
	// arrives.
	//lint:ignore sleepseam chaos pacing: the hog needs wall time to get admitted first
	time.Sleep(30 * time.Millisecond)

	for id := 0; id < stormWorkers; id++ {
		wg.Add(1)
		go worker(id)
	}
	if err := <-hogDone; err != nil {
		violate(tl.Steps, "harness", fmt.Sprintf("the hog write failed: %v", err))
	}
	inRecovery.Store(true)
	//lint:ignore sleepseam chaos pacing: the recovery window is measured in wall time
	time.Sleep(recoveryFor)
	stop.Store(true)
	wg.Wait()

	// Token conservation: retries ≤ initial capacity + earnings, with
	// one token of slack for a withdrawal racing the final snapshot.
	cap := budgetCap + budgetEarn*float64(successes.Load()) + 1
	res.AckedWrites = len(s.paths)
	cfg.Logf("retry-storm: %d retries (cap %.1f), %d successes, %d shed, budget refused %d, %d recovered",
		retries.Load(), cap, successes.Load(), s.srv.Stats.Shed.Load(), budget.Exhausted(), recovered.Load())
	if float64(retries.Load()) > cap {
		violate(tl.Steps, "retry-amplification", fmt.Sprintf(
			"%d retries exceed the budget-conservation cap %.1f — the storm sustained itself", retries.Load(), cap))
	}
	if budget.Exhausted() == 0 {
		violate(tl.Steps, "harness", "the retry budget never refused a withdrawal — the storm never pressed it")
	}
	if s.srv.Stats.Shed.Load() == 0 {
		violate(tl.Steps, "harness", "the server never shed a request — the slot was never contended")
	}
	if recovered.Load() < 20 {
		violate(tl.Steps, "goodput-recovers", fmt.Sprintf(
			"only %d ops succeeded in the %v after the hog finished", recovered.Load(), recoveryFor))
	}
	if err := s.verifyAcked(false, violate, tl.Steps); err != nil {
		return nil, err
	}
	return res, nil
}
