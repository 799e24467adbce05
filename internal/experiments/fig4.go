package experiments

import (
	"fmt"
	"strings"
	"time"

	"tss/internal/abstraction"
	"tss/internal/netsim"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// Figure 4 — I/O Call Latency over a gigabit network: Parrot+CFS
// versus kernel NFS (caching off) versus Parrot+DSFS. The shapes to
// reproduce:
//
//   - CFS stat and open beat NFS because Chirp sends whole paths in
//     one round trip while NFS resolves component by component;
//   - CFS writes an 8 KB buffer in one round trip; NFS needs two 4 KB
//     RPCs;
//   - DSFS matches CFS for data operations but pays double for
//     metadata (stub + data).

// Fig4Row is one measured call across the three systems.
type Fig4Row struct {
	Call string
	// Wall-clock latency per call. On a shared host it carries the
	// scheduler's wake-up times (the trap emulator alone costs four
	// thread switches a call), so it is reported, not asserted on.
	CFS  time.Duration
	NFS  time.Duration
	DSFS time.Duration
	// Round trips per call, counted on the client's connections: the
	// quantity the figure's ordering rests on, whatever the host's speed.
	CFSTrips, NFSTrips, DSFSTrips float64
	// CFSService is the time per call the CFS server spent serving it,
	// from its RPC histograms.
	CFSService time.Duration
}

// Fig4Result is the full figure.
type Fig4Result struct {
	Rows []Fig4Row
}

// RunFig4 measures I/O call latency over a simulated gigabit link.
func RunFig4(iters int) (*Fig4Result, error) {
	env := NewEnv()
	defer env.Close()
	env.Metrics = obs.NewRegistry()
	prof := netsim.GigE

	// CFS: one Chirp server through the adapter.
	cfsClient, _, err := env.StartChirp("cfs.sim", prof)
	if err != nil {
		return nil, err
	}
	cfs := env.AdapterOn(cfsClient, true)

	// NFS baseline, accessed "via the usual kernel method" — directly.
	nfs, err := env.StartNFS("nfs.sim", prof)
	if err != nil {
		return nil, err
	}

	// DSFS: metadata on one Chirp server, data on two more.
	metaClient, _, err := env.StartChirp("meta.sim", prof)
	if err != nil {
		return nil, err
	}
	data1, _, err := env.StartChirp("data1.sim", prof)
	if err != nil {
		return nil, err
	}
	data2, _, err := env.StartChirp("data2.sim", prof)
	if err != nil {
		return nil, err
	}
	dsfsRaw, err := abstraction.NewDSFS(metaClient, "/tree", []abstraction.DataServer{
		{Name: "data1.sim", FS: data1, Dir: "/vol"},
		{Name: "data2.sim", FS: data2, Dir: "/vol"},
	}, abstraction.Options{ClientID: "bench"})
	if err != nil {
		return nil, err
	}
	// "a DSFS via Parrot": the DSFS is also reached through the
	// adapter, like the CFS.
	dsfsAdapter := env.AdapterOn(dsfsRaw, true)
	dsfs, err := vfs.Subtree(dsfsAdapter, "/m")
	if err != nil {
		return nil, err
	}

	// Fixtures: the same three-deep path on every system, as the NFS
	// lookup cost depends on depth.
	payload := make([]byte, 8192)
	buf := make([]byte, 8192)
	const dir1, dir2, file = "/bench", "/bench/run", "/bench/run/f"
	for _, fs := range []vfs.FileSystem{cfsClient, nfs, dsfs} {
		if err := vfs.MkdirAll(fs, dir2, 0o755); err != nil {
			return nil, err
		}
		if err := vfs.WriteFile(fs, file, payload, 0o644); err != nil {
			return nil, err
		}
	}

	cfsFile, err := cfs.Open("/m"+file, vfs.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer cfsFile.Close()
	nfsFile, err := nfs.Open(file, vfs.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer nfsFile.Close()
	dsfsFile, err := dsfs.Open(file, vfs.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer dsfsFile.Close()

	type op struct {
		name string
		cfs  func() error
		nfs  func() error
		dsfs func() error
	}
	openClose := func(fs vfs.FileSystem, path string) func() error {
		return func() error {
			f, err := fs.Open(path, vfs.O_RDONLY, 0)
			if err != nil {
				return err
			}
			return f.Close()
		}
	}
	ops := []op{
		{
			name: "stat",
			cfs:  func() error { _, err := cfs.Stat("/m" + file); return err },
			nfs:  func() error { _, err := nfs.Stat(file); return err },
			dsfs: func() error { _, err := dsfs.Stat(file); return err },
		},
		{
			name: "open/close",
			cfs:  openClose(cfs, "/m"+file),
			nfs:  openClose(nfs, file),
			dsfs: openClose(dsfs, file),
		},
		{
			name: "read 8KB",
			cfs:  func() error { _, err := cfsFile.Pread(buf, 0); return err },
			nfs:  func() error { _, err := nfsFile.Pread(buf, 0); return err },
			dsfs: func() error { _, err := dsfsFile.Pread(buf, 0); return err },
		},
		{
			name: "write 8KB",
			cfs:  func() error { _, err := cfsFile.Pwrite(payload, 0); return err },
			nfs:  func() error { _, err := nfsFile.Pwrite(payload, 0); return err },
			dsfs: func() error { _, err := dsfsFile.Pwrite(payload, 0); return err },
		},
	}

	// The three systems are driven one after the other, so the change
	// in an environment-wide count over one system's calls is that
	// system's. timed runs op and also returns the round trips per call
	// (warm-up calls included on both sides).
	timed := func(op func() error) (time.Duration, float64, error) {
		before := env.Trips()
		d, err := timeOp(iters, op)
		return d, float64(env.Trips()-before) / float64(iters+timeOpWarmup), err
	}
	// serviceNS sums the time every Chirp server has spent serving RPCs.
	serviceNS := func() (ns int64) {
		for _, h := range env.Metrics.Snapshot().Histograms {
			ns += h.SumNS
		}
		return ns
	}
	res := &Fig4Result{}
	for _, o := range ops {
		row := Fig4Row{Call: o.name}
		var err error
		before := serviceNS()
		if row.CFS, row.CFSTrips, err = timed(o.cfs); err != nil {
			return nil, fmt.Errorf("fig4 %s cfs: %w", o.name, err)
		}
		row.CFSService = time.Duration(serviceNS()-before) / time.Duration(iters+timeOpWarmup)
		if row.NFS, row.NFSTrips, err = timed(o.nfs); err != nil {
			return nil, fmt.Errorf("fig4 %s nfs: %w", o.name, err)
		}
		if row.DSFS, row.DSFSTrips, err = timed(o.dsfs); err != nil {
			return nil, fmt.Errorf("fig4 %s dsfs: %w", o.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the figure as a table.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: I/O Call Latency over gigabit Ethernet (no caching anywhere)\n")
	b.WriteString("paper shape: CFS <= NFS on metadata (whole-path vs per-component lookup);\n")
	b.WriteString("             DSFS ~= CFS on data, ~2x CFS on metadata (stub + data)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s   %s\n", "CALL", "PARROT+CFS", "UNIX+NFS", "PARROT+DSFS", "ROUND TRIPS (CFS server time)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %14s %14s %14s   %.2f / %.2f / %.2f (%s)\n",
			row.Call, fmtDur(row.CFS), fmtDur(row.NFS), fmtDur(row.DSFS),
			row.CFSTrips, row.NFSTrips, row.DSFSTrips, fmtDur(row.CFSService))
	}
	return b.String()
}
