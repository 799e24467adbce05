package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tss/internal/acl"
	"tss/internal/auth"
	"tss/internal/chirp"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/resilient"
	"tss/internal/vfs"
)

// The overload benchmark is the admission-control ablation of
// DESIGN.md §15: the same 4x-capacity closed-loop fleet runs twice
// against the same bounded-capacity server — once with the admission
// queue bounded and shedding (EAGAIN), once with the queue effectively
// unbounded and never shedding (the pre-armor behavior). The workload
// uses the two-phase putfilesum verb over a bandwidth-shaped uplink,
// so an admitted write holds its admission slot for payload/bandwidth
// of real time; capacity is therefore a property of the simulation,
// not of the host CPU.
//
// Without shedding, queue delay grows past the client deadline:
// clients abandon and retry, the server spends its scarce slots
// streaming bodies for clients that have already hung up, and goodput
// collapses. With admission control the queue stays short, excess is
// refused in microseconds, and budgeted full-jitter retries convert
// the refusals into backpressure instead of amplification.

// RequiredOverloadMetrics are the observability series the overload
// armor exports; RunOverloadBench fails if any is missing from the
// registry snapshot embedded in the JSON artifact.
var RequiredOverloadMetrics = []string{
	"chirp_server.inflight",
	"chirp_server.queue_depth",
	"chirp_server.shed_total",
	"resilient.budget_exhausted",
}

// OverloadBenchConfig sizes the ablation.
type OverloadBenchConfig struct {
	// Workers is the closed-loop fleet size; MaxInflight is the server's
	// slot count. Workers = 4 * MaxInflight is the canonical 4x load.
	Workers     int
	MaxInflight int
	// Payload and Bandwidth fix the per-write slot-hold time at
	// Payload/Bandwidth of wall time.
	Payload   int
	Bandwidth int64
	// ClientTimeout is the per-RPC deadline the clients run (and
	// propagate to the server as a deadline budget).
	ClientTimeout time.Duration
	// BudgetTokens is the shared client retry budget per arm.
	BudgetTokens float64
	// Unloaded, Warmup, and Measure are the phase durations: unloaded
	// control-plane baseline, load warm-up (excluded from goodput), and
	// the measured window.
	Unloaded time.Duration
	Warmup   time.Duration
	Measure  time.Duration
	// Seed drives workload content.
	Seed  int64
	Quick bool
}

// DefaultOverloadBench returns the standard ablation configuration;
// quick shrinks the measured window for a fast pass.
func DefaultOverloadBench(quick bool) OverloadBenchConfig {
	cfg := OverloadBenchConfig{
		Workers:       16,
		MaxInflight:   4,
		Payload:       48 << 10,
		Bandwidth:     1 << 20, // 48ms of slot hold per write
		ClientTimeout: 150 * time.Millisecond,
		BudgetTokens:  20,
		Unloaded:      250 * time.Millisecond,
		Warmup:        300 * time.Millisecond,
		Measure:       2 * time.Second,
		Seed:          1,
	}
	if quick {
		cfg.Measure = 1200 * time.Millisecond
		cfg.Quick = true
	}
	return cfg
}

// OverloadArm is one side of the ablation.
type OverloadArm struct {
	Name            string  `json:"name"`
	GoodputOps      int64   `json:"goodput_ops"`
	GoodputPerSec   float64 `json:"goodput_per_sec"`
	OpErrors        int64   `json:"op_errors"`
	Retries         int64   `json:"retries"`
	Shed            int64   `json:"shed"`
	DeadlineRejects int64   `json:"deadline_rejects"`
	BudgetExhausted int64   `json:"budget_exhausted"`
	ControlP99Ms    float64 `json:"control_p99_ms"`
	ProbeFailures   int64   `json:"probe_failures"`
}

// OverloadBenchReport is the ablation result for BENCH_chirp.json.
type OverloadBenchReport struct {
	Name        string `json:"name"`
	Quick       bool   `json:"quick"`
	Workers     int    `json:"workers"`
	MaxInflight int    `json:"max_inflight"`
	// UnloadedControlP99Ms is the control-plane p99 against the
	// admission-controlled server with no bulk load offered.
	UnloadedControlP99Ms float64      `json:"unloaded_control_p99_ms"`
	WithAdmission        *OverloadArm `json:"with_admission"`
	WithoutAdmission     *OverloadArm `json:"without_admission"`
	// GoodputRatio is with/without; the armor's bar is >= 2.
	GoodputRatio float64 `json:"goodput_ratio"`
	// ControlP99Ratio is with-admission-under-pressure / unloaded; the
	// armor's bar is <= 5.
	ControlP99Ratio float64 `json:"control_p99_ratio"`
	// Metrics is the merged registry snapshot (admission-arm server +
	// client side), so the exported overload series land in the JSON
	// artifact; MetricNames lists the asserted-present series.
	Metrics     obs.Snapshot `json:"metrics"`
	MetricNames []string     `json:"metric_names"`
}

// JSON renders the report for BENCH_chirp.json.
func (r *OverloadBenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render renders the ablation table.
func (r *OverloadBenchReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload ablation: %d workers vs %d slots (4x load), unloaded control p99 %.2fms\n",
		r.Workers, r.MaxInflight, r.UnloadedControlP99Ms)
	fmt.Fprintf(&b, "%-18s %8s %9s %8s %8s %9s %8s %11s\n",
		"ARM", "GOODPUT", "OPS/S", "ERRS", "RETRIES", "SHED", "DDLREJ", "CTRL-P99MS")
	for _, arm := range []*OverloadArm{r.WithAdmission, r.WithoutAdmission} {
		fmt.Fprintf(&b, "%-18s %8d %9.1f %8d %8d %9d %8d %11.2f\n",
			arm.Name, arm.GoodputOps, arm.GoodputPerSec, arm.OpErrors,
			arm.Retries, arm.Shed, arm.DeadlineRejects, arm.ControlP99Ms)
	}
	goodputBar := "PASS"
	if r.GoodputRatio < 2 {
		goodputBar = "FAIL"
	}
	p99Bar := "PASS"
	if r.ControlP99Ratio > 5 {
		p99Bar = "FAIL"
	}
	fmt.Fprintf(&b, "goodput ratio (with/without) %.2fx (bar >= 2x): %s\n", r.GoodputRatio, goodputBar)
	fmt.Fprintf(&b, "control p99 ratio (pressure/unloaded) %.2fx (bar <= 5x): %s\n", r.ControlP99Ratio, p99Bar)
	return b.String()
}

// Bars reports whether both published bars hold.
func (r *OverloadBenchReport) Bars() error {
	if r.GoodputRatio < 2 {
		return fmt.Errorf("goodput with admission is only %.2fx the without-admission arm (bar >= 2x)", r.GoodputRatio)
	}
	if r.ControlP99Ratio > 5 {
		return fmt.Errorf("control-plane p99 under pressure is %.2fx unloaded (bar <= 5x)", r.ControlP99Ratio)
	}
	return nil
}

const (
	overloadServerName = "srv.bench"
	overloadLoadHost   = "load.bench"
	overloadProbeHost  = "probe.bench"
)

// overloadProbe samples control-plane Stat latency on its own
// unshaped connection, bucketing by the current phase label.
type overloadProbe struct {
	c     *chirp.Client
	phase atomic.Value
	fail  atomic.Int64
	mu    sync.Mutex
	lat   map[string][]time.Duration
}

func (p *overloadProbe) run(stop <-chan struct{}) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		name, _ := p.phase.Load().(string)
		if name == "" {
			continue
		}
		t0 := time.Now()
		if _, err := p.c.Stat("/"); err != nil {
			p.fail.Add(1)
			continue
		}
		d := time.Since(t0)
		p.mu.Lock()
		p.lat[name] = append(p.lat[name], d)
		p.mu.Unlock()
	}
}

func (p *overloadProbe) p99Ms(phase string) float64 {
	p.mu.Lock()
	lat := append([]time.Duration(nil), p.lat[phase]...)
	p.mu.Unlock()
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[len(lat)*99/100]) / float64(time.Millisecond)
}

// runOverloadArm executes one side of the ablation and returns the arm
// result, the server+client registry snapshots, and the unloaded
// control-plane p99 measured before load was offered.
func runOverloadArm(cfg OverloadBenchConfig, admission bool) (*OverloadArm, obs.Snapshot, obs.Snapshot, float64, error) {
	nw := netsim.NewNetwork()
	root, err := os.MkdirTemp("", "tss-overload-")
	if err != nil {
		return nil, obs.Snapshot{}, obs.Snapshot{}, 0, err
	}
	defer os.RemoveAll(root)

	rootACL := &acl.List{}
	rootACL.Set("hostname:"+overloadLoadHost, acl.AllRights, 0)
	rootACL.Set("hostname:"+overloadProbeHost, acl.AllRights, 0)
	serverReg := obs.NewRegistry()
	srvCfg := chirp.ServerConfig{
		Name:        overloadServerName,
		Owner:       auth.Subject("hostname:" + overloadLoadHost),
		Verifiers:   []auth.Verifier{&auth.HostnameVerifier{}},
		RootACL:     rootACL,
		Metrics:     serverReg,
		MaxInflight: cfg.MaxInflight,
	}
	if admission {
		srvCfg.QueueDepth = cfg.MaxInflight
		srvCfg.QueueTimeout = 25 * time.Millisecond
	} else {
		// The ablated arm keeps the same scarce capacity but never
		// sheds: an effectively unbounded FIFO with an effectively
		// infinite queue timeout — the pre-armor server.
		srvCfg.QueueDepth = 1 << 20
		srvCfg.QueueTimeout = 10 * time.Minute
	}
	srv, err := chirp.NewServer(root, srvCfg)
	if err != nil {
		return nil, obs.Snapshot{}, obs.Snapshot{}, 0, err
	}
	l, err := nw.Listen(overloadServerName)
	if err != nil {
		return nil, obs.Snapshot{}, obs.Snapshot{}, 0, err
	}
	go srv.Serve(l)
	defer srv.Abort()
	nw.SetLinkProfileOneWay(overloadLoadHost, overloadServerName, netsim.LinkProfile{Bandwidth: cfg.Bandwidth})
	// The probe crosses a realistic LAN link in both directions, so its
	// p99 measures admission queueing on top of a real RTT rather than
	// scheduler jitter on top of zero.
	probeLink := netsim.LinkProfile{Latency: 2 * time.Millisecond}
	nw.SetLinkProfileOneWay(overloadProbeHost, overloadServerName, probeLink)
	nw.SetLinkProfileOneWay(overloadServerName, overloadProbeHost, probeLink)

	dial := func(host string, timeout time.Duration, verify bool) (*chirp.Client, error) {
		return chirp.Dial(chirp.ClientConfig{
			Dial: func() (net.Conn, error) {
				return nw.DialFrom(host, overloadServerName, netsim.Loopback)
			},
			Credentials: []auth.Credential{auth.HostnameCredential{}},
			Timeout:     timeout,
			Verify:      verify,
		})
	}

	setup, err := dial(overloadProbeHost, 5*time.Second, false)
	if err != nil {
		return nil, obs.Snapshot{}, obs.Snapshot{}, 0, err
	}
	if err := setup.Mkdir("/data", 0o755); err != nil {
		setup.Close()
		return nil, obs.Snapshot{}, obs.Snapshot{}, 0, err
	}
	setup.Close()

	clientReg := obs.NewRegistry()
	mExhausted := clientReg.Counter("resilient.budget_exhausted")
	budget := resilient.NewRetryBudget(cfg.BudgetTokens, 0.1)
	budget.OnExhausted = mExhausted.Inc

	arm := &OverloadArm{Name: "with-admission"}
	if !admission {
		arm.Name = "without-admission"
	}
	var goodput atomic.Int64
	var measuring, stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(id int) {
		defer wg.Done()
		c, err := dial(overloadLoadHost, cfg.ClientTimeout, true)
		if err != nil {
			return
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id+1)*7919))
		content := make([]byte, cfg.Payload)
		rng.Read(content)
		policy := resilient.Policy{
			Attempts: 5, Base: 2 * time.Millisecond, Max: 40 * time.Millisecond,
			Jitter: 1, RetryBudget: budget,
			OnRetry: func(int, error) {
				if measuring.Load() {
					atomic.AddInt64(&arm.Retries, 1)
				}
			},
		}
		for seq := 0; !stop.Load(); seq++ {
			path := fmt.Sprintf("/data/w%02d-%06d", id, seq)
			// Restamp the head so every write is distinct without paying
			// for a full payload's worth of fresh randomness per op.
			rng.Read(content[:16])
			err := policy.Run(c, func() error {
				//lint:ignore copyapi the closed loop issues bare single-shot writes on purpose
				return vfs.PutReader(c, path, 0o644, int64(len(content)), bytes.NewReader(content))
			}, nil)
			if !measuring.Load() {
				continue
			}
			if err == nil {
				goodput.Add(1)
			} else {
				atomic.AddInt64(&arm.OpErrors, 1)
			}
		}
	}

	probeClient, err := dial(overloadProbeHost, 2*time.Second, false)
	if err != nil {
		return nil, obs.Snapshot{}, obs.Snapshot{}, 0, err
	}
	pb := &overloadProbe{c: probeClient, lat: make(map[string][]time.Duration)}
	pb.phase.Store("unloaded")
	probeStop := make(chan struct{})
	go pb.run(probeStop)
	//lint:ignore sleepseam bench phase window: the unloaded baseline is a wall-clock measurement interval
	time.Sleep(cfg.Unloaded)
	pb.phase.Store("")

	for id := 0; id < cfg.Workers; id++ {
		wg.Add(1)
		go worker(id)
	}
	//lint:ignore sleepseam bench phase window: warm-up excluded from the measured window
	time.Sleep(cfg.Warmup)
	measuring.Store(true)
	pb.phase.Store("loaded")
	//lint:ignore sleepseam bench phase window: goodput is counted over this wall-clock interval
	time.Sleep(cfg.Measure)
	measuring.Store(false)
	pb.phase.Store("")
	stop.Store(true)
	wg.Wait()
	close(probeStop)
	probeClient.Close()

	arm.GoodputOps = goodput.Load()
	arm.GoodputPerSec = float64(arm.GoodputOps) / cfg.Measure.Seconds()
	arm.Shed = srv.Stats.Shed.Load()
	arm.DeadlineRejects = srv.Stats.DeadlineRejects.Load()
	arm.BudgetExhausted = budget.Exhausted()
	arm.ControlP99Ms = pb.p99Ms("loaded")
	arm.ProbeFailures = pb.fail.Load()
	return arm, serverReg.Snapshot(), clientReg.Snapshot(), pb.p99Ms("unloaded"), nil
}

// RunOverloadBench executes both ablation arms and asserts that the
// overload metrics are present in the embedded registry snapshot. The
// published bars (goodput ratio, control-plane p99 ratio) are recorded
// in the report; callers decide whether to enforce them via Bars.
func RunOverloadBench(cfg OverloadBenchConfig) (*OverloadBenchReport, error) {
	withArm, serverSnap, clientSnap, unloadedP99, err := runOverloadArm(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("with-admission arm: %w", err)
	}
	withoutArm, _, _, _, err := runOverloadArm(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("without-admission arm: %w", err)
	}
	serverSnap.Merge(clientSnap)
	rep := &OverloadBenchReport{
		Name:                 "overload-ablation",
		Quick:                cfg.Quick,
		Workers:              cfg.Workers,
		MaxInflight:          cfg.MaxInflight,
		UnloadedControlP99Ms: unloadedP99,
		WithAdmission:        withArm,
		WithoutAdmission:     withoutArm,
		Metrics:              serverSnap,
		MetricNames:          RequiredOverloadMetrics,
	}
	if withoutArm.GoodputPerSec > 0 {
		rep.GoodputRatio = withArm.GoodputPerSec / withoutArm.GoodputPerSec
	} else if withArm.GoodputPerSec > 0 {
		rep.GoodputRatio = 1000 // total collapse without admission
	}
	if unloadedP99 > 0 {
		rep.ControlP99Ratio = withArm.ControlP99Ms / unloadedP99
	}
	var missing []string
	for _, name := range RequiredOverloadMetrics {
		if _, ok := rep.Metrics.Counters[name]; ok {
			continue
		}
		if _, ok := rep.Metrics.Gauges[name]; ok {
			continue
		}
		missing = append(missing, name)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("overload metrics missing from the registry snapshot: %s", strings.Join(missing, ", "))
	}
	return rep, nil
}
