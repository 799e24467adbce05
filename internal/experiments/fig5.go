package experiments

import (
	"fmt"
	"strings"
	"time"

	"tss/internal/adapter"
	"tss/internal/netsim"
	"tss/internal/vfs"
)

// Figure 5 — Single Client Bandwidth: write 16 MB in varying block
// sizes to four targets. The shapes to reproduce:
//
//   - Unix (direct local I/O) is fastest — memory-speed ceiling;
//   - Parrot (adapter, local) loses a constant factor to the extra
//     data copy but stays far above network speeds;
//   - Parrot+CFS rides up to a large fraction of the gigabit link,
//     because Chirp uses variable-sized messages on one TCP stream;
//   - Unix+NFS plateaus an order of magnitude below the link, stuck
//     at 4 KB-per-round-trip no matter the application block size.

// Fig5Row is the bandwidth of each system at one block size.
type Fig5Row struct {
	BlockSize int
	// Wall-clock bandwidth. On a shared host it carries the scheduler
	// (the trap emulator's thread handoffs make the Parrot row bimodal
	// on two cores), so it is reported, not asserted on.
	UnixMBps   float64
	ParrotMBps float64
	CFSMBps    float64
	NFSMBps    float64
	// What the figure's orderings rest on, whatever the host's speed:
	// copies per byte for the local systems (the write itself, plus
	// what went through the trap buffer) and round trips per block on
	// the client's connection for the networked ones.
	UnixCopies, ParrotCopies float64
	CFSTrips, NFSTrips       float64
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Rows []Fig5Row
}

// DefaultFig5Blocks is the block size sweep of the figure.
var DefaultFig5Blocks = []int{512, 4 << 10, 32 << 10, 256 << 10, 1 << 20, 8 << 20}

// fig5TotalBytes is the copy size of the figure.
const fig5TotalBytes = 16 << 20

// measureCopy returns the best bandwidth of three trials: host page
// cache writeback stalls hit trials asymmetrically, and the paper's
// figure likewise reports maximum achieved bandwidth. It also returns
// how far count advanced per block written, over the write loops alone.
func measureCopy(fs vfs.FileSystem, path string, block int, total int64, count func() int64) (best, perBlock float64, err error) {
	var counted, blocks int64
	for trial := 0; trial < 3; trial++ {
		v, c, n, err := measureCopyOnce(fs, path, block, total, count)
		if err != nil {
			return 0, 0, err
		}
		if v > best {
			best = v
		}
		counted += c
		blocks += n
	}
	return best, float64(counted) / float64(blocks), nil
}

func measureCopyOnce(fs vfs.FileSystem, path string, block int, total int64, count func() int64) (mbs float64, counted, ops int64, err error) {
	const maxOps = 2048
	ops = total / int64(block)
	if ops > maxOps {
		ops = maxOps
	}
	if ops == 0 {
		ops = 1
	}
	moved := ops * int64(block)
	payload := make([]byte, block)
	f, err := fs.Open(path, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, 0, err
	}
	before := count()
	start := time.Now()
	var off int64
	for i := int64(0); i < ops; i++ {
		if err := vfs.WriteAll(f, payload, off); err != nil {
			f.Close()
			return 0, 0, 0, err
		}
		off += int64(block)
	}
	elapsed := time.Since(start)
	counted = count() - before
	if err := f.Close(); err != nil {
		return 0, 0, 0, err
	}
	return mbps(moved, elapsed), counted, ops, nil
}

// RunFig5 sweeps block sizes over the four systems.
func RunFig5(blocks []int) (*Fig5Result, error) {
	if len(blocks) == 0 {
		blocks = DefaultFig5Blocks
	}
	env := NewEnv()
	defer env.Close()

	local, err := env.LocalFS()
	if err != nil {
		return nil, err
	}
	parrotLocalFS, err := env.LocalFS()
	if err != nil {
		return nil, err
	}
	trap := adapter.NewTrapEmulator()
	env.onClose(trap.Close)
	parrot := adapter.New(adapter.Config{Trap: trap})
	parrot.MountFS("/m", parrotLocalFS)

	cfsClient, _, err := env.StartChirp("cfs.sim", netsim.GigE)
	if err != nil {
		return nil, err
	}
	cfs := env.AdapterOn(cfsClient, true)

	nfs, err := env.StartNFS("nfs.sim", netsim.GigE)
	if err != nil {
		return nil, err
	}

	res := &Fig5Result{}
	for _, block := range blocks {
		row := Fig5Row{BlockSize: block}
		// One copy of every byte is the write itself; the rest is what
		// went through the trap buffer meanwhile.
		var trapped float64
		if row.UnixMBps, trapped, err = measureCopy(local, "/unix.out", block, fig5TotalBytes, trap.Copied); err != nil {
			return nil, fmt.Errorf("fig5 unix: %w", err)
		}
		row.UnixCopies = 1 + trapped/float64(block)
		if row.ParrotMBps, trapped, err = measureCopy(parrot, "/m/parrot.out", block, fig5TotalBytes, trap.Copied); err != nil {
			return nil, fmt.Errorf("fig5 parrot: %w", err)
		}
		row.ParrotCopies = 1 + trapped/float64(block)
		if row.CFSMBps, row.CFSTrips, err = measureCopy(cfs, "/m/cfs.out", block, fig5TotalBytes, env.Trips); err != nil {
			return nil, fmt.Errorf("fig5 cfs: %w", err)
		}
		if row.NFSMBps, row.NFSTrips, err = measureCopy(nfs, "/nfs.out", block, fig5TotalBytes, env.Trips); err != nil {
			return nil, fmt.Errorf("fig5 nfs: %w", err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func fmtBlock(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Render prints the figure as a table.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: Single Client Bandwidth, 16MB copy by block size (MB/s)\n")
	b.WriteString("paper shape: Unix > Parrot >> Parrot+CFS (most of 1Gb/s) >> Unix+NFS (4KB RPC ceiling)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %10s\n", "BLOCK", "UNIX", "PARROT", "PARROT+CFS", "UNIX+NFS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %12.1f %10.1f\n",
			fmtBlock(row.BlockSize), row.UnixMBps, row.ParrotMBps, row.CFSMBps, row.NFSMBps)
	}
	b.WriteString("copies per byte (local) and round trips per block (networked)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10.2f %10.2f %12.2f %10.2f\n",
			fmtBlock(row.BlockSize), row.UnixCopies, row.ParrotCopies, row.CFSTrips, row.NFSTrips)
	}
	return b.String()
}
