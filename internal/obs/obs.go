// Package obs is the measurement substrate of the tactical storage
// system: dependency-free counters, gauges, and fixed-bucket latency
// histograms with mergeable snapshots.
//
// The paper's entire evaluation is latency and throughput measurement
// (Figures 3-9), and its users distrust transparent layers (§3); obs
// makes every layer of a running stack report what it is doing. A
// Registry holds named metrics, which the adapter, cache, mirror and
// Chirp client and server record into under their own prefix; Handler
// publishes a snapshot over HTTP. The per-layer decomposition of one
// operation is the repository benchmark's trace (benchmark/).
//
// The registry is the only store of counts: a component's Stats are
// handles to its registry counters, so each event is counted once. A
// component built without a registry takes its counters from a private
// one (OrNew) and leaves its gauges and histograms nil. Counters are
// shared by name, so components wired to one registry add into one
// series: give each component whose Stats are read alone its own.
//
// All metric types are safe for concurrent use, and every method is
// nil-receiver-safe: a component wired with a nil *Histogram (because no
// registry was configured) pays a single predictable branch, so
// instrumentation can be threaded through hot paths unconditionally.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count. Safe on a nil receiver (zero).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down — a breaker state, a queue
// depth, a drain flag.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value. Safe on a nil receiver (zero).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// BucketBounds are the fixed upper bounds of every latency histogram,
// spanning sub-microsecond local operations to multi-second WAN
// recovery. A fixed layout keeps snapshots from different processes
// mergeable bucket-by-bucket.
var BucketBounds = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// numBuckets counts the bounded buckets plus the overflow bucket.
var numBuckets = len(BucketBounds) + 1

// Histogram is a fixed-bucket latency histogram. Observations above
// the last bound land in the overflow bucket.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	counts []atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, numBuckets)}
}

// Observe records one duration. Safe on a nil receiver (no-op) and
// allocation-free otherwise.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	i := sort.Search(len(BucketBounds), func(i int) bool { return d <= BucketBounds[i] })
	h.counts[i].Add(1)
}

// Since records the time elapsed from start until now — the usual
// call-site idiom is `defer h.Since(time.Now())`. Safe on nil.
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Snap returns a consistent-enough snapshot of the histogram: bucket
// counts are read individually, so a snapshot taken under concurrent
// observation may be off by in-flight observations, never corrupt.
func (h *Histogram) Snap() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		SumNS:   h.sum.Load(),
		Buckets: make([]int64, numBuckets),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the frozen, JSON-friendly form of a Histogram.
// Buckets is parallel to BucketBounds, plus one final overflow bucket.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Mean returns the mean observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket containing it; overflow reports the last bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			if i < len(BucketBounds) {
				return BucketBounds[i]
			}
			break
		}
	}
	return BucketBounds[len(BucketBounds)-1]
}

// Merge adds other's observations into s. Mismatched bucket layouts
// (snapshots from a build with different bounds) merge count and sum
// only, leaving s's buckets — the totals stay truthful either way.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	s.Count += other.Count
	s.SumNS += other.SumNS
	if len(s.Buckets) == 0 {
		s.Buckets = append([]int64(nil), other.Buckets...)
		return
	}
	if len(other.Buckets) != len(s.Buckets) {
		return
	}
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Snapshot is a frozen view of a whole Registry, the unit that travels:
// serialized on /metrics, embedded in bench output, merged across
// processes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Merge folds other into s: counters and histogram contents add,
// gauges take other's value (last writer wins).
func (s *Snapshot) Merge(other Snapshot) {
	if len(other.Counters) > 0 && s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	if len(other.Gauges) > 0 && s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	for k, v := range other.Gauges {
		s.Gauges[k] = v
	}
	if len(other.Histograms) > 0 && s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for k, v := range other.Histograms {
		h := s.Histograms[k]
		h.Merge(v)
		s.Histograms[k] = h
	}
}

// Registry is a namespace of metrics. Metric accessors get-or-create
// by name, so independent components wiring the same name share the
// metric. All methods are safe for concurrent use and on a nil
// receiver: a nil registry hands out nil metrics, which are themselves
// safe no-ops — "instrumentation disabled" needs no branches at the
// call site.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// OrNew returns r, or a new private registry when r is nil: where a
// component takes its Stats counters, so they count with or without a
// configured registry.
func OrNew(r *Registry) *Registry {
	if r == nil {
		return NewRegistry()
	}
	return r
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.histograms, name, newHistogram)
}

// getOrCreate returns m[name], creating it with mk under r's lock.
func getOrCreate[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Snapshot freezes the registry. Safe on a nil receiver (empty).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s.Counters = snap(r.counters, (*Counter).Load)
	s.Gauges = snap(r.gauges, (*Gauge).Load)
	s.Histograms = snap(r.histograms, (*Histogram).Snap)
	return s
}

// snap reads every metric of m with read; nil when m is empty, so an
// unused kind is omitted from the JSON form.
func snap[T, V any](m map[string]*T, read func(*T) V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = read(v)
	}
	return out
}
