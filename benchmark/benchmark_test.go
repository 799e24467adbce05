package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tss/internal/cache"
	"tss/internal/vfs"
)

func TestPercentileAndMedian(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	// Nearest rank on 20 samples: p95 is the 19th, one sample beyond it.
	if got := percentile(s[:20], 0.95); got != 19 {
		t.Errorf("percentile(1..20, 0.95) = %d, want 19", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// Synthetic trace on three boundaries. The second adapter call fans out
// into two overlapping client calls: their union (25), not their sum
// (35), comes off the adapter's time, and the two are weighted 25/35 so
// the layers still add up to the unit.
func TestAnalyzeUnionOfChildren(t *testing.T) {
	spans := []span{
		// Recorded in completion order, as the recorder would.
		{layer: 2, start: 15, end: 25},
		{layer: 1, start: 10, end: 40},
		{layer: 2, start: 55, end: 70},
		{layer: 2, start: 60, end: 80},
		{layer: 1, start: 50, end: 90},
		{layer: 0, start: 0, end: 100},
	}
	res := analyze(spans, 3)
	want := []float64{30, 35, 35} // app, adapter, client
	for l, w := range want {
		if got := res.layers[l].selfNS; math.Abs(got-w) > 1e-9 {
			t.Errorf("layer %d self = %v, want %v", l, got, w)
		}
	}
	if res.layers[2].calls != 3 || res.layers[2].durNS != 45 {
		t.Errorf("client boundary: %+v", res.layers[2])
	}
	if res.orphans != 0 || math.Abs(res.closure()-1) > 1e-9 {
		t.Errorf("orphans %d closure %v, want 0 and 1", res.orphans, res.closure())
	}
	if p := res.parent[2]; p != 4 {
		t.Errorf("parent of overlapping child = %d, want 4", p)
	}

	// A client call outside every adapter call has no parent and is
	// charged in full, so the closure shows it.
	res = analyze(append(spans, span{layer: 2, start: 92, end: 97}), 3)
	if res.orphans != 1 || math.Abs(res.closure()-1.05) > 1e-9 {
		t.Errorf("with orphan: orphans %d closure %v, want 1 and 1.05", res.orphans, res.closure())
	}
}

func TestContentIsCheckable(t *testing.T) {
	a, b := make([]byte, 4096), make([]byte, 1024)
	fill(a, keyOf("/x", 3), 8192)
	fill(b, keyOf("/x", 3), 8192+2048)
	if !bytes.Equal(a[2048:3072], b) {
		t.Fatal("content at an offset depends on where the fill started")
	}
	if !matches(a, keyOf("/x", 3), 8192) {
		t.Fatal("fresh content does not match itself")
	}
	if matches(a, keyOf("/x", 4), 8192) || matches(a, keyOf("/y", 3), 8192) || matches(a, keyOf("/x", 3), 0) {
		t.Fatal("content matches under another version, path or offset")
	}
	a[100] ^= 1
	if matches(a, keyOf("/x", 3), 8192) {
		t.Fatal("a flipped bit went unnoticed")
	}
}

func TestUnitStreamIsAFunctionOfTheSeed(t *testing.T) {
	const n = 2000
	stream := func(w *workload, seed int64) []unitDesc {
		p := w.plan(seed)
		out := make([]unitDesc, n)
		for i := range out {
			out[i] = p.next(i)
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := stream(w, 1), stream(w, 1), stream(w, 2)
		same, writes := true, 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed, unit %d differs: %+v vs %+v", w.name, i, a[i], b[i])
			}
			same = same && a[i] == c[i]
			if a[i].write {
				writes++
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
		if writes != n/w.writeEvery {
			t.Errorf("%s: %d mutating units in %d, want exactly %d", w.name, writes, n, n/w.writeEvery)
		}
	}
}

// capSet names the capabilities present in c.
func capSet(c vfs.Capability) string {
	var s []string
	add := func(name string, present bool) {
		if present {
			s = append(s, name)
		}
	}
	add("OpenStater", c.OpenStater != nil)
	add("FileGetter", c.FileGetter != nil)
	add("FilePutter", c.FilePutter != nil)
	add("PartGetter", c.PartGetter != nil)
	add("PartPutter", c.PartPutter != nil)
	add("Checksummer", c.Checksummer != nil)
	add("Leaser", c.Leaser != nil)
	add("Reconnector", c.Reconnector != nil)
	add("Closer", c.Closer != nil)
	return strings.Join(s, " ")
}

// The traced stack must take the paths the bare stack takes: a wrapper
// that drops a capability changes what is measured.
func TestSpanFSKeepsCapabilities(t *testing.T) {
	ctx := context.Background()
	rec, err := newRecorder([]string{layerApp, "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.release()
	layers := map[string]vfs.FileSystem{}

	modern := workloadByName("sp5_modern")
	st, err := newStack(ctx, modern.transport(), t.TempDir(), modern.servers, modern.layers, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close(ctx)
	if err := modern.compose(st); err != nil {
		t.Fatal(err)
	}
	layers["chirp.Pool"], layers["MirrorFS"], layers["cache.FS"] = st.pools[0], st.mirror, st.cache

	dsfs := workloadByName("dsfs_lan")
	st2, err := newStack(ctx, dsfs.transport(), t.TempDir(), dsfs.servers, dsfs.layers, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.close(ctx)
	ds, err := newDSFS(st2.pools[0], st2.pools[1], st2.pools[2], "test")
	if err != nil {
		t.Fatal(err)
	}
	layers["DSFS"] = ds

	for name, fs := range layers {
		bare, wrapped := capSet(vfs.Capabilities(fs)), capSet(vfs.Capabilities(wrap(fs, rec, "x")))
		if bare != wrapped {
			t.Errorf("%s: capabilities {%s} become {%s} behind spanFS", name, bare, wrapped)
		}
		if name != "DSFS" && !strings.Contains(bare, "Leaser") {
			t.Errorf("%s: expected a Leaser among {%s}", name, bare)
		}
	}
	// And the capability the cache lives on is actually reached through
	// the wrapper, and recorded.
	c := cache.New(wrap(st.pools[0], rec, "x"), cache.Options{})
	defer c.Close()
	if _, err := c.Stat("/"); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, s := range rec.spans() {
		ops = append(ops, opNames[s.op])
	}
	if got := strings.Join(ops, " "); got != "lease stat" {
		t.Errorf("cache miss through spanFS issued %q, want \"lease stat\"", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// Every workload, at the size of `-units 50 -reps 1` (10 for the
// transfer workload, whose unit moves 16 MiB: this package runs beside
// other packages' timing-shape tests and must not hog disk and cores):
// no failure, and exactly the advertised metric names, end to end and
// per layer.
func TestWorkloadsSmall(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			units := 50
			if w.seedLocal != nil {
				units = 10
			}
			traceFile := t.TempDir() + "/trace.jsonl"
			lay, res, err := measureLayers(ctx, w, t.TempDir(), spec{seed: 1, units: units}, traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.units != units || res.okRatio() != 1 {
				t.Errorf("end to end: %d units, %d of %d failed (%v)", res.units, res.failed, res.attempted, res.firstErr)
			}
			if got, want := names(res.metrics), defNames(endToEndDefs); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("end-to-end metric names:\n got %v\nwant %v", got, want)
			}
			for k, v := range res.metrics {
				// CPU time is charged in scheduler ticks; 50 small units
				// can fit between two.
				if (!(v > 0) && k != "cpu_us_per_op") || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", k, v)
				}
			}
			if lay.failed != 0 {
				t.Errorf("per layer: %d of %d failed (%v)", lay.failed, lay.attempted, lay.firstErr)
			}
			if got, want := names(lay.metrics), defNames(perLayerDefs); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("per-layer metric names:\n got %v\nwant %v", got, want)
			}
			m := lay.metrics
			if c := m["trace.closure_ratio"]; c < 0.95 || c > 1.05 {
				t.Errorf("trace.closure_ratio = %v, want within 0.95–1.05", c)
			}
			if w.name == "sp5_cfs" || w.name == "smallio_rw" {
				if m["chirp_client.rpcs_per_op"] != m["chirp_server.requests_per_op"] {
					t.Errorf("client counted %v RPCs per op, server %v", m["chirp_client.rpcs_per_op"], m["chirp_server.requests_per_op"])
				}
			}
			b, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if lines := bytes.Count(b, []byte("\n")); float64(lines) != m["trace.spans_per_op"]*float64(units) {
				t.Errorf("trace file has %d lines, trace.spans_per_op says %v per op", lines, m["trace.spans_per_op"])
			}
			var first struct {
				ID, Parent int
				Layer, Op  string
			}
			if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &first); err != nil || first.Layer != layerApp || first.Parent != -1 {
				t.Errorf("first trace line %+v (%v), want an app unit without parent", first, err)
			}
		})
	}
}

// BENCHMARK.json is what the driver reads; the program must print
// exactly what it promises.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || !metricName.MatchString(w.name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs, true)
	check("per_layer", spec.PerLayer, perLayerDefs, false)
}

func TestCompareVerdicts(t *testing.T) {
	ms := func(better string, bound float64, vs ...float64) metricSummary {
		m := metricSummary{Better: better, Bound: bound, Median: median(vs), Min: vs[0], Max: vs[0], Values: vs}
		for _, v := range vs {
			m.Min, m.Max = min(m.Min, v), max(m.Max, v)
		}
		return m
	}
	for _, tc := range []struct {
		name      string
		base, cur metricSummary
		want      string
	}{
		{"within bound, tight", ms(lower, 0.10, 100, 101, 102), ms(lower, 0.10, 104, 105, 106), verdictOK},
		{"past bound, ranges apart", ms(lower, 0.10, 100, 101, 102), ms(lower, 0.10, 115, 116, 117), verdictWorse},
		{"past bound, ranges overlap", ms(lower, 0.10, 100, 101, 120), ms(lower, 0.10, 90, 115, 116), verdictUnresolved},
		{"within bound, but noisier than the bound", ms(lower, 0.10, 100, 101, 130), ms(lower, 0.10, 99, 102, 125), verdictUnresolved},
		{"noisy, but every repetition better", ms(lower, 0.10, 100, 110, 130), ms(lower, 0.10, 50, 60, 70), verdictOK},
		{"higher is better: drop past bound", ms(higher, 0.10, 1000, 1010, 1020), ms(higher, 0.10, 850, 860, 870), verdictWorse},
		{"higher is better: gain", ms(higher, 0.10, 1000, 1010, 1020), ms(higher, 0.10, 1500, 1510, 1520), verdictOK},
	} {
		if got := judge(tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
