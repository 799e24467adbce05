package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tss/internal/netsim"
	"tss/internal/vfs"
)

// PoolBenchConfig sizes the transport-pool parallel-load benchmark: the
// same concurrent read workload driven first through one shared
// connection, then through a connection pool, against the same server.
type PoolBenchConfig struct {
	// Clients is the number of concurrent reader goroutines.
	Clients int
	// PoolSize is the connection budget of the pooled transport.
	PoolSize int
	// Files is the number of files seeded on the server.
	Files int
	// FileSize is the size of each file in bytes.
	FileSize int
	// Reads is the number of whole-file reads per client goroutine.
	Reads int
	// Link shapes each client↔server connection.
	Link netsim.LinkProfile
	// Quick marks the reduced configuration in the report.
	Quick bool
}

// PoolLink is the link profile the pool benchmark runs over: gigabit
// bandwidth with a campus-area 5 ms one-way latency. Transport pooling
// pays off by overlapping round trips, so the benchmark is deliberately
// latency-bound; the 5 ms latency also sits above netsim's 2 ms
// spin threshold, so concurrent links wait on timers instead of
// busy-yielding — on a single-CPU CI machine, spinning links contend
// for the core and the simulation itself would serialize.
var PoolLink = netsim.LinkProfile{Latency: 5 * time.Millisecond, Bandwidth: 125 << 20}

// DefaultPoolBench returns the full-size configuration for the given
// client count (0 = default 8); quick shrinks the workload for a fast
// pass.
func DefaultPoolBench(quick bool, clients int) PoolBenchConfig {
	if clients <= 0 {
		clients = 8
	}
	cfg := PoolBenchConfig{
		Clients:  clients,
		PoolSize: 4,
		Files:    8,
		FileSize: 64 << 10,
		Reads:    32,
		Link:     PoolLink,
	}
	if quick {
		cfg.FileSize, cfg.Reads = 16<<10, 8
		cfg.Quick = true
	}
	return cfg
}

// PoolBenchRow is one transport's aggregate result.
type PoolBenchRow struct {
	Transport string  `json:"transport"` // "single" or "pool"
	Conns     int     `json:"conns"`     // live connections used
	Reads     int     `json:"reads"`     // total whole-file reads
	Bytes     int64   `json:"bytes"`
	ElapsedMS float64 `json:"elapsed_ms"`
	MBps      float64 `json:"aggregate_mbps"`
}

// PoolBenchReport compares aggregate read throughput of a
// single-connection client against a connection pool under the same
// concurrent load.
type PoolBenchReport struct {
	Name     string         `json:"name"`
	Quick    bool           `json:"quick"`
	Clients  int            `json:"clients"`
	PoolSize int            `json:"pool_size"`
	Files    int            `json:"files"`
	FileSize int            `json:"file_size"`
	ReadsPer int            `json:"reads_per_client"`
	Rows     []PoolBenchRow `json:"rows"`
	// Speedup is pooled aggregate MB/s over single-connection MB/s.
	Speedup float64 `json:"speedup"`
}

// Render renders the comparison as a table.
func (r *PoolBenchReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transport-pool bench: %d clients × %d reads × %d B (pool size %d)\n",
		r.Clients, r.ReadsPer, r.FileSize, r.PoolSize)
	fmt.Fprintf(&b, "%-10s %6s %7s %12s %12s\n", "TRANSPORT", "CONNS", "READS", "ELAPSED", "AGG MB/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %6d %7d %10.1fms %12.1f\n",
			row.Transport, row.Conns, row.Reads, row.ElapsedMS, row.MBps)
	}
	fmt.Fprintf(&b, "speedup: %.2fx\n", r.Speedup)
	return b.String()
}

// drivePoolReads fans Reads whole-file fetches per goroutine across
// clients goroutines against one transport, returning total bytes moved
// and wall time.
func drivePoolReads(g vfs.FileGetter, clients, readsPer, files int) (int64, time.Duration, error) {
	var wg sync.WaitGroup
	var total atomic.Int64
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < readsPer; i++ {
				p := fmt.Sprintf("/f%04d", (c*readsPer+i)%files)
				n, err := g.GetFile(p, io.Discard)
				if err != nil {
					errs[c] = fmt.Errorf("client %d read %d: %w", c, i, err)
					return
				}
				total.Add(n)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return total.Load(), elapsed, nil
}

// RunPoolBench measures what the transport pool buys under concurrent
// load: N goroutines hammer whole-file reads first through a single
// shared connection (every RPC serialized on one socket — the pre-pool
// deployment) and then through a Client of PoolSize connections against
// the same server and files. The ratio of aggregate throughput is the
// speedup the pool delivers to the abstractions stacked above it.
func RunPoolBench(cfg PoolBenchConfig) (*PoolBenchReport, error) {
	env := NewEnv()
	defer env.Close()

	single, _, err := env.StartChirp("pool-bench", cfg.Link)
	if err != nil {
		return nil, err
	}
	pool, err := env.DialChirp("pool-bench", cfg.Link, cfg.PoolSize)
	if err != nil {
		return nil, err
	}

	payload := bytes.Repeat([]byte("tactical-storage "), cfg.FileSize/17+1)[:cfg.FileSize]
	for i := 0; i < cfg.Files; i++ {
		p := fmt.Sprintf("/f%04d", i)
		//lint:ignore copyapi benchmark seeding measures the raw single-stream baseline
		if err := vfs.PutReader(single, p, 0o644, int64(cfg.FileSize), bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("seed %s: %w", p, err)
		}
	}

	rep := &PoolBenchReport{
		Name:     "chirp-transport-pool",
		Quick:    cfg.Quick,
		Clients:  cfg.Clients,
		PoolSize: cfg.PoolSize,
		Files:    cfg.Files,
		FileSize: cfg.FileSize,
		ReadsPer: cfg.Reads,
	}
	totalReads := cfg.Clients * cfg.Reads

	nb, elapsed, err := drivePoolReads(single, cfg.Clients, cfg.Reads, cfg.Files)
	if err != nil {
		return nil, fmt.Errorf("single-connection run: %w", err)
	}
	singleMBps := mbps(nb, elapsed)
	rep.Rows = append(rep.Rows, PoolBenchRow{
		Transport: "single", Conns: 1, Reads: totalReads, Bytes: nb,
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6, MBps: singleMBps,
	})

	nb, elapsed, err = drivePoolReads(pool, cfg.Clients, cfg.Reads, cfg.Files)
	if err != nil {
		return nil, fmt.Errorf("pooled run: %w", err)
	}
	poolMBps := mbps(nb, elapsed)
	rep.Rows = append(rep.Rows, PoolBenchRow{
		Transport: "pool", Conns: pool.Conns(), Reads: totalReads, Bytes: nb,
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6, MBps: poolMBps,
	})

	if singleMBps > 0 {
		rep.Speedup = poolMBps / singleMBps
	}
	return rep, nil
}
