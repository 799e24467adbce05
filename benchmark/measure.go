package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"tss/internal/vfs"
)

// session is one assembled, seeded, warmed-up stack with its runner and
// the position in the unit stream.
type session struct {
	w      *workload
	st     *stack
	run    runner
	plan   *planner
	next   int     // index of the next unit
	setupS float64 // servers up, dial + auth, seed, compose, warm-up
}

// spec sizes one measurement: the seed of the unit stream and either a
// fixed number of timed units or, with units 0, a time to fill with
// whole rounds.
type spec struct {
	seed    int64
	units   int
	seconds float64
	// settle ends every set-up with a sync (see setup). The program
	// always settles; the package's tests, which time nothing and share
	// the machine with other packages' tests, do not.
	settle bool
}

// warm is the untimed warm-up: the workload's own count, scaled down
// with the timed phase when that is shorter than the workload's default.
func (sp spec) warm(w *workload) int {
	if sp.units == 0 || sp.units >= w.units {
		return w.warm
	}
	return max(1, w.warm*sp.units/w.units)
}

// setup brings a stack for w up under dir — servers, pools, seed files,
// client layers — and runs the untimed warm-up. Everything from the
// first listen to the last warm-up unit is set-up time.
func setup(ctx context.Context, w *workload, dir string, sp spec, traced bool) (*session, error) {
	t0 := time.Now()
	st, err := newStack(ctx, w.transport(), dir, w.servers, w.layers, traced)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, st: st, plan: w.plan(sp.seed)}
	if err := s.assemble(); err != nil {
		st.close(ctx)
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if bad := s.units(ctx, sp.warm(w), nil); bad.failed > 0 {
		s.close(ctx)
		return nil, fmt.Errorf("%s: warm-up: %d units failed: %w", w.name, bad.failed, bad.firstErr)
	}
	if st.rec != nil {
		st.rec.reset()
	}
	// Set-up leaves tens of MiB of dirty pages behind. Written back
	// during the timed phase they make every mutating unit wait on the
	// disk for some seconds and not for others; flush them now, inside
	// set-up time.
	if sp.settle {
		syscall.Sync()
	}
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// seedExports writes w's tree onto every server of st: directories
// through the server's pool, file bytes straight into its export.
func seedExports(w *workload, st *stack) error {
	for i, n := range st.nodes {
		ex, err := n.export()
		if err != nil {
			return err
		}
		if err := w.seed(seedTarget{dirs: st.pools[i], files: ex}); err != nil {
			return err
		}
	}
	return nil
}

// newLocalDir makes the directory and opens it as a vfs.LocalFS.
func newLocalDir(dir string) (*vfs.LocalFS, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	return vfs.NewLocalFS(dir)
}

func (s *session) assemble() error {
	w, st := s.w, s.st
	var err error
	if w.seedStack != nil {
		err = w.seedStack(st)
	} else {
		err = seedExports(w, st)
	}
	if err != nil {
		return err
	}
	if w.seedLocal != nil {
		if st.local, err = newLocalDir(filepath.Join(st.dir, "scratch")); err != nil {
			return err
		}
		if err := w.seedLocal(st.local); err != nil {
			return err
		}
	}
	if err := w.compose(st); err != nil {
		return err
	}
	run, err := w.start(st.top, st.local)
	s.run = run
	return err
}

func (s *session) close(ctx context.Context) error {
	var first error
	if s.run != nil {
		first = s.run.close()
	}
	if err := s.st.close(ctx); first == nil {
		first = err
	}
	return first
}

// audit checks what the units left on the export directories.
func (s *session) audit() (checked, bad int, err error) {
	exports := make([]*vfs.LocalFS, len(s.st.nodes))
	for i, n := range s.st.nodes {
		if exports[i], err = n.export(); err != nil {
			return 0, 0, err
		}
	}
	return s.run.audit(exports)
}

// tally is the outcome of a run of units.
type tally struct {
	units, failed int
	bytes         int64
	firstErr      error
}

// samples collects per-unit latencies of one round, by class.
type samples struct {
	read, write []int64
}

// units runs the next n units of the stream. With lat non-nil each
// unit's latency is appended to its class; on a traced stack each unit
// is also recorded as an app span.
func (s *session) units(ctx context.Context, n int, lat *samples) tally {
	var t tally
	rec := s.st.rec
	for ; n > 0; n-- {
		i := s.next
		s.next++
		d := s.plan.next(i)
		var spanStart int64
		if rec != nil {
			spanStart = rec.now()
		}
		t0 := time.Now()
		nb, err := s.run.unit(ctx, i, d)
		el := int64(time.Since(t0))
		if rec != nil {
			rec.add(0, opUnit, spanStart)
		}
		t.units++
		t.bytes += nb
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("unit %d: %w", i, err)
			}
		}
		if lat != nil {
			if d.write {
				lat.write = append(lat.write, el)
			} else {
				lat.read = append(lat.read, el)
			}
		}
	}
	return t
}

// roundStat is what one measurement round yields. A phase is a sequence
// of rounds of the workload's fixed round size. Every timing is reported
// from the best round — highest throughput, lowest latency percentile,
// least CPU: on a shared host other tenants only ever add time, in
// episodes of seconds, so the fastest round is the one they disturbed
// least (medians over rounds moved twice as much from run to run).
// Counts per unit are the median over rounds.
type roundStat struct {
	secs       float64
	units      int
	bytes      int64
	mallocs    uint64
	allocBytes uint64
	cpuUS      float64
	// p50, p95, p99 of unit latency in µs, [0] non-mutating, [1] mutating.
	p50, p95, p99 [2]float64
}

// phaseResult is one timed phase.
type phaseResult struct {
	rounds   []roundStat
	units    int
	failed   int
	gcCycles uint32
	firstErr error
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// phase runs the timed phase: rounds of w.round units until sp.units
// have run, or — with units 0 — until sp.seconds have passed.
func (s *session) phase(ctx context.Context, sp spec) phaseResult {
	units, seconds := sp.units, sp.seconds
	var ph phaseResult
	lat := samples{read: make([]int64, 0, s.w.round), write: make([]int64, 0, s.w.round)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := ms0.NumGC
	start := time.Now()
	for {
		n := s.w.round
		if units > 0 {
			n = min(n, units-ph.units)
		}
		if n <= 0 {
			break
		}
		lat.read, lat.write = lat.read[:0], lat.write[:0]
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := cpuMicros(), time.Now()
		t := s.units(ctx, n, &lat)
		secs, cpu1 := time.Since(t0).Seconds(), cpuMicros()
		runtime.ReadMemStats(&ms1)
		r := roundStat{
			secs: secs, units: t.units, bytes: t.bytes,
			mallocs: ms1.Mallocs - ms0.Mallocs, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
			cpuUS: cpu1 - cpu0,
		}
		for c, l := range [][]int64{lat.read, lat.write} {
			slices.Sort(l)
			r.p50[c] = float64(percentile(l, 0.50)) / 1e3
			r.p95[c] = float64(percentile(l, 0.95)) / 1e3
			r.p99[c] = float64(percentile(l, 0.99)) / 1e3
		}
		ph.rounds = append(ph.rounds, r)
		ph.units += t.units
		ph.failed += t.failed
		if ph.firstErr == nil {
			ph.firstErr = t.firstErr
		}
		if units == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	ph.gcCycles = ms1.NumGC - gc0
	return ph
}

// over returns f of every round.
func (ph *phaseResult) over(f func(r *roundStat) float64) []float64 {
	vs := make([]float64, len(ph.rounds))
	for i := range ph.rounds {
		vs[i] = f(&ph.rounds[i])
	}
	return vs
}

// lowest and highest are the best round's value of a lower-is-better
// and a higher-is-better timing.
func (ph *phaseResult) lowest(f func(r *roundStat) float64) float64 {
	return slices.Min(ph.over(f))
}

func (ph *phaseResult) highest(f func(r *roundStat) float64) float64 {
	return slices.Max(ph.over(f))
}

func (ph *phaseResult) opsPerS() float64 {
	return ph.highest(func(r *roundStat) float64 { return float64(r.units) / r.secs })
}

func (ph *phaseResult) mbPerS() float64 {
	return ph.highest(func(r *roundStat) float64 { return float64(r.bytes) / (1 << 20) / r.secs })
}

// liveHeapMB is the heap still reachable with the stack open: HeapAlloc
// after two collections (the second sweeps what the first finalized).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// result is what one measurement of one workload reports.
type result struct {
	metrics   map[string]float64
	phase     phaseResult // the timed phase the metrics come from
	attempted int
	failed    int
	units     int
	firstErr  error
}

func (r *result) okRatio() float64 { return 1 - float64(r.failed)/float64(r.attempted) }

// measureEndToEnd is one untraced measurement of w: `setups` complete
// set-ups (all but the last torn down again; set-up time is their
// median), one timed phase, the live-heap reading, the audit.
func measureEndToEnd(ctx context.Context, w *workload, scratch string, sp spec, setups int) (*result, error) {
	var s *session
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(ctx); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(scratch, w.name+"-")
		if err != nil {
			return nil, err
		}
		if s, err = setup(ctx, w, dir, sp, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, s.setupS)
	}
	ph := s.phase(ctx, sp)
	heap := liveHeapMB()
	checked, bad, err := s.audit()
	if cerr := s.close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		phase:     ph,
		attempted: ph.units + checked,
		failed:    ph.failed + bad,
		units:     ph.units,
		firstErr:  ph.firstErr,
	}
	if res.firstErr == nil && bad > 0 {
		res.firstErr = fmt.Errorf("audit: %d of %d acknowledged writes wrong on the export", bad, checked)
	}
	perUnit := func(f func(r *roundStat) float64) []float64 {
		return ph.over(func(r *roundStat) float64 { return f(r) / float64(r.units) })
	}
	res.metrics = map[string]float64{
		"setup_s":         median(setupS),
		"ops_per_s":       ph.opsPerS(),
		"mb_per_s":        ph.mbPerS(),
		"read_p50_us":     ph.lowest(func(r *roundStat) float64 { return r.p50[0] }),
		"write_p50_us":    ph.lowest(func(r *roundStat) float64 { return r.p50[1] }),
		"read_p95_us":     ph.lowest(func(r *roundStat) float64 { return r.p95[0] }),
		"write_p95_us":    ph.lowest(func(r *roundStat) float64 { return r.p95[1] }),
		"ok_ratio":        res.okRatio(),
		"allocs_per_op":   median(perUnit(func(r *roundStat) float64 { return float64(r.mallocs) })),
		"alloc_kb_per_op": median(perUnit(func(r *roundStat) float64 { return float64(r.allocBytes) / 1024 })),
		"cpu_us_per_op":   slices.Min(perUnit(func(r *roundStat) float64 { return r.cpuUS })),
		"live_heap_mb":    heap,
	}
	return res, nil
}
