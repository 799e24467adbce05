// Command benchmark is the repository's one benchmark. It drives the
// real stack — adapter, cache, abstraction, chirp.Pool, the wire,
// chirp.Server, ACLs and vfs.LocalFS on a scratch directory, all in one
// process — through five named workloads, reports twelve named
// end-to-end metrics per workload, checks every byte it reads, and in a
// separate traced run attributes the time to layers from spans recorded
// by its own vfs.FileSystem wrappers. See README.md in this directory.
//
//	go run ./benchmark                       # all workloads, -reps repetitions, tables + out/result.json
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload sp5_cfs --seed 7 --seconds 10 --trace 0   # one measurement, JSON on the last line
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "measure this one workload and print one JSON result line (default: run the whole suite)")
		seed    = flag.Int64("seed", 1, "seeds every generator; the same seed gives the same unit stream")
		seconds = flag.Float64("seconds", 10, "with -workload: length of the timed phase")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		units   = flag.Int("units", 0, "timed units per measurement (default: the workload's own count in the suite, -seconds with -workload)")
		setups  = flag.Int("setups", 3, "with -workload: set the stack up this many times and report the median set-up time")
		reps    = flag.Int("reps", 3, "suite: repetitions per workload, interleaved")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for scratch trees, traces and the suite result")
		compare = flag.Bool("compare", false, "compare two suite results: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare base.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var failed bool
	var err error
	if *name != "" {
		failed, err = runOne(ctx, *name, *out, spec{seed: *seed, units: *units, seconds: *seconds, settle: true}, *trace, *setups)
	} else {
		failed, err = runSuite(ctx, *out, *seed, *units, *reps, procs)
	}
	if err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// resultLine is the object a single measurement prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one measurement of one workload; the last line it prints is
// the result object.
func runOne(ctx context.Context, name, out string, sp spec, trace, setups int) (failed bool, err error) {
	w := workloadByName(name)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	var res *result
	defs := endToEndDefs
	if trace != 0 {
		defs = perLayerDefs
		res, _, err = measureLayers(ctx, w, scratch, sp, filepath.Join(out, "trace-"+w.name+".jsonl"))
	} else {
		res, err = measureEndToEnd(ctx, w, scratch, sp, setups)
	}
	if err != nil {
		return false, err
	}
	fmt.Printf("%s seed=%d transport=%s units=%d GOMAXPROCS=%d\n", w.name, sp.seed, w.transport().name, res.units, runtime.GOMAXPROCS(0))
	line := resultLine{res.failed == 0, res.attempted, res.failed, map[string]metricValue{}}
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", d.name, res.metrics[d.name], d.unit)
		line.Metrics[d.name] = metricValue{res.metrics[d.name], d.unit}
	}
	if res.firstErr != nil {
		fmt.Println("  first failure:", res.firstErr)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return res.failed > 0, nil
}

// metricSummary is one end-to-end metric of one workload over the
// suite's repetitions.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

type workloadResult struct {
	Why       string                   `json:"why"`
	Transport string                   `json:"transport"`
	Units     int                      `json:"units"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]float64       `json:"per_layer"`
}

// suiteResult is what the suite writes and -compare reads.
type suiteResult struct {
	Meta struct {
		Commit     string `json:"commit"`
		Time       string `json:"time"`
		Seed       int64  `json:"seed"`
		Reps       int    `json:"reps"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		ScratchFS  string `json:"scratch_fs"`
	} `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// measureInChild runs one measurement of w in a fresh process of this
// same program, as the driver does, so that no measurement inherits
// heap, pooled buffers or page-cache state from the one before it (in
// one process, the live heap a workload reported depended on which
// workload had run before).
func measureInChild(ctx context.Context, w *workload, out string, seed int64, units, trace int) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-units", fmt.Sprint(units), "-trace", fmt.Sprint(trace), "-setups", "1", "-out", out)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	// A child that counted failures exits 1 but still prints its result.
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		if runErr != nil {
			err = runErr
		}
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if line.Failed > 0 {
		os.Stderr.Write(stdout)
	}
	return &line, nil
}

// runSuite runs every workload reps times, interleaved so that drift of
// the machine spreads over all of them, then one traced run each — every
// measurement in a process of its own — and prints and stores the lot.
func runSuite(ctx context.Context, out string, seed int64, units, reps, procs int) (failed bool, err error) {
	var sr suiteResult
	sr.Meta.Commit = commit()
	sr.Meta.Time = time.Now().UTC().Format(time.RFC3339)
	sr.Meta.Seed, sr.Meta.Reps = seed, reps
	sr.Meta.NProc, sr.Meta.GOMAXPROCS = runtime.NumCPU(), procs
	sr.Meta.GoVersion = runtime.Version()
	sr.Meta.ScratchFS = fsType(out)
	sr.Workloads = map[string]*workloadResult{}
	fmt.Printf("commit %s  seed %d  reps %d  nproc %d  GOMAXPROCS %d  %s  scratch on %s\n",
		sr.Meta.Commit, seed, reps, sr.Meta.NProc, procs, sr.Meta.GoVersion, sr.Meta.ScratchFS)
	fmt.Println("closed loop, 1 client; chirp.Pool{PoolSize: 2}; servers in-process")

	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		n := units
		if n == 0 {
			n = w.units
		}
		sr.Workloads[w.name] = &workloadResult{Why: w.why, Transport: w.transport().name, Units: n}
		values[w.name] = map[string][]float64{}
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			wr := sr.Workloads[w.name]
			res, err := measureInChild(ctx, w, out, seed, wr.Units, 0)
			if err != nil {
				return false, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for k, v := range res.Metrics {
				values[w.name][k] = append(values[w.name][k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "rep %d/%d %-11s %9.1f ops/s\n", rep+1, reps, w.name, res.Metrics["ops_per_s"].Value)
		}
	}
	for _, w := range workloads {
		wr := sr.Workloads[w.name]
		res, err := measureInChild(ctx, w, out, seed, wr.Units, 1)
		if err != nil {
			return false, err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.PerLayer = map[string]float64{}
		for k, v := range res.Metrics {
			wr.PerLayer[k] = v.Value
		}
		fmt.Fprintf(os.Stderr, "traced   %-11s closure %.3f\n", w.name, wr.PerLayer["trace.closure_ratio"])
	}

	for _, w := range workloads {
		wr := sr.Workloads[w.name]
		wr.EndToEnd = map[string]metricSummary{}
		note := ""
		if w.transport().nw != nil {
			note = "; cpu_us_per_op includes netsim's sub-2 ms busy-wait"
		}
		fmt.Printf("\n%s — %s, %d units x %d reps%s\n  why: %s\n", w.name, wr.Transport, wr.Units, reps, note, w.why)
		fmt.Printf("  %-18s %-6s %14s %14s %14s %7s\n", "metric", "unit", "median", "min", "max", "bound")
		for _, d := range endToEndDefs {
			vs := values[w.name][d.name]
			ms := metricSummary{Unit: d.unit, Better: d.better, Bound: d.bound, Median: median(vs), Min: vs[0], Max: vs[0], Values: vs}
			for _, v := range vs {
				ms.Min, ms.Max = min(ms.Min, v), max(ms.Max, v)
			}
			wr.EndToEnd[d.name] = ms
			fmt.Printf("  %-18s %-6s %14.4f %14.4f %14.4f %6.1f%%\n", d.name, d.unit, ms.Median, ms.Min, ms.Max, d.bound*100)
		}
		fmt.Printf("  fail_ratio %d/%d\n", wr.Failed, wr.Attempted)
		failed = failed || wr.Failed > 0
	}
	fmt.Printf("\nper-layer (one traced run per workload; spans in %s)\n  %-36s %-6s", filepath.Join(out, "trace-<workload>.jsonl"), "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %12s", w.name)
	}
	fmt.Println()
	for _, d := range perLayerDefs {
		fmt.Printf("  %-36s %-6s", d.name, d.unit)
		for _, w := range workloads {
			fmt.Printf(" %12.4g", sr.Workloads[w.name].PerLayer[d.name])
		}
		fmt.Println()
	}
	b, err := json.MarshalIndent(&sr, "", " ")
	if err != nil {
		return failed, err
	}
	path := filepath.Join(out, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return failed, err
	}
	fmt.Println("\nresult written to", path)
	return failed, nil
}

// commit names the tree being measured, when git can tell.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem the scratch trees live on; it decides
// what set-up and the audit cost.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
