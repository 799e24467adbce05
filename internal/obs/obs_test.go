package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if got := c.Load(); got != 0 {
		t.Errorf("nil Counter.Load() = %d, want 0", got)
	}
	var g *Gauge
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 0 {
		t.Errorf("nil Gauge.Load() = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	h.Since(time.Now())
	if s := h.Snap(); s.Count != 0 {
		t.Errorf("nil Histogram.Snap().Count = %d, want 0", s.Count)
	}
}

func TestNilRegistryHandsOutNilMetrics(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil Registry must hand out nil metrics")
	}
	s := r.Snapshot()
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatal("nil Registry.Snapshot() must be empty")
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops")
	b := r.Counter("ops")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	b.Inc()
	if got := r.Snapshot().Counters["ops"]; got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1 in the 1µs bucket, 2 in the 100µs bucket, 1 in overflow.
	h.Observe(500 * time.Nanosecond)
	h.Observe(60 * time.Microsecond)
	h.Observe(80 * time.Microsecond)
	h.Observe(time.Minute)
	s := h.Snap()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if got := s.Buckets[0]; got != 1 {
		t.Errorf("1µs bucket = %d, want 1", got)
	}
	if got := s.Buckets[len(s.Buckets)-1]; got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
	if got := s.Quantile(0.5); got != 100*time.Microsecond {
		t.Errorf("p50 = %v, want 100µs (bucket upper bound)", got)
	}
	if s.Mean() <= 0 {
		t.Errorf("mean = %v, want > 0", s.Mean())
	}
	// Negative observations clamp instead of corrupting the sum.
	h.Observe(-time.Second)
	if s := h.Snap(); s.SumNS < 0 {
		t.Errorf("negative observation corrupted sum: %d", s.SumNS)
	}
}

func TestSnapshotMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("ops").Add(3)
	r2.Counter("ops").Add(4)
	r2.Counter("only2").Add(1)
	r1.Gauge("state").Set(1)
	r2.Gauge("state").Set(2)
	r1.Histogram("lat").Observe(10 * time.Microsecond)
	r2.Histogram("lat").Observe(10 * time.Microsecond)

	s := r1.Snapshot()
	s.Merge(r2.Snapshot())
	if got := s.Counters["ops"]; got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := s.Counters["only2"]; got != 1 {
		t.Errorf("merged new counter = %d, want 1", got)
	}
	if got := s.Gauges["state"]; got != 2 {
		t.Errorf("merged gauge = %d, want 2 (last writer wins)", got)
	}
	if got := s.Histograms["lat"].Count; got != 2 {
		t.Errorf("merged histogram count = %d, want 2", got)
	}
	// Merging into an empty snapshot copies buckets.
	var empty Snapshot
	empty.Merge(s)
	if got := empty.Histograms["lat"].Count; got != 2 {
		t.Errorf("merge into empty: count = %d, want 2", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(5)
	r.Histogram("lat").Observe(time.Millisecond)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["ops"] != 5 || back.Histograms["lat"].Count != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestConcurrentRegistryAndMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("ops").Inc()
				r.Gauge("depth").Set(int64(i))
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["ops"]; got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := s.Histograms["lat"].Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
