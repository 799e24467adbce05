package experiments

import (
	"strings"
	"testing"
	"time"

	"tss/internal/netsim"
	"tss/internal/workload"
)

// These tests run each experiment driver at reduced scale and assert
// the paper's qualitative shapes, so a regression that flips a
// conclusion fails CI even though absolute numbers drift by machine.

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	big := 0
	for _, row := range res.Rows {
		if row.Adapter <= row.Direct {
			t.Errorf("%s: adapter (%v) not slower than direct (%v)", row.Call, row.Adapter, row.Direct)
		}
		if row.Slowdown < 1.2 {
			t.Errorf("%s: slowdown %.2f, want interposition clearly visible", row.Call, row.Slowdown)
		}
		if row.Slowdown >= 2 {
			big++
		}
	}
	// "Most system calls are slowed by an order of magnitude" in the
	// paper; our thread-switch emulation is cheaper than ptrace's
	// process switches, but the multiple must still dominate at least
	// half the calls.
	if big < 2 {
		t.Errorf("only %d/4 calls slowed >=2x through the adapter", big)
	}
	if !strings.Contains(res.Render(), "SLOWDOWN") {
		t.Error("render missing header")
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := RunFig4(120)
	if err != nil {
		t.Fatal(err)
	}
	byCall := map[string]Fig4Row{}
	for _, row := range res.Rows {
		byCall[row.Call] = row
	}
	// The orderings are asserted on round trips, which no host can
	// change, priced at the simulated RTT; the wall-clock figures, which
	// carry this host's scheduling, are logged.
	t.Log("\n" + res.Render())
	// CFS metadata beats NFS (whole-path vs per-component), even with
	// the CFS server's measured time added and the NFS server's left out.
	rtt := float64(2 * netsim.GigE.Latency)
	for _, call := range []string{"stat", "open/close"} {
		r := byCall[call]
		cfs, nfs := time.Duration(r.CFSTrips*rtt)+r.CFSService, time.Duration(r.NFSTrips*rtt)
		if cfs >= nfs {
			t.Errorf("%s: CFS %.2f round trips + %v of server time = %v, not faster than NFS %.2f round trips = %v",
				call, r.CFSTrips, r.CFSService, cfs, r.NFSTrips, nfs)
		}
	}
	// 8KB writes: one round trip vs two 4KB RPCs.
	if w := byCall["write 8KB"]; w.CFSTrips != 1 || w.NFSTrips != 2 {
		t.Errorf("write 8KB: CFS %.2f round trips, NFS %.2f, want 1 and 2", w.CFSTrips, w.NFSTrips)
	}
	// DSFS matches CFS on data ops; metadata costs double (stub + data).
	if r := byCall["read 8KB"]; r.DSFSTrips != r.CFSTrips {
		t.Errorf("read 8KB: DSFS %.2f round trips should match CFS %.2f", r.DSFSTrips, r.CFSTrips)
	}
	if s := byCall["stat"]; s.DSFSTrips != 2*s.CFSTrips {
		t.Errorf("stat: DSFS %.2f round trips vs CFS %.2f, want 2x", s.DSFSTrips, s.CFSTrips)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := RunFig5([]int{4 << 10, 256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// As in Figure 4, the orderings are asserted on counts no host can
	// change — copies per byte, round trips per block — with the network
	// rows priced at the simulated link; the wall-clock table is logged.
	t.Log("\n" + res.Render())
	// wire is the time one block spends on the simulated gigabit link.
	wire := func(trips float64, block int) time.Duration {
		return time.Duration(trips*float64(2*netsim.GigE.Latency)) +
			time.Duration(float64(block)/float64(netsim.GigE.Bandwidth)*float64(time.Second))
	}
	pricedMBps := func(trips float64, block int) float64 { return mbps(int64(block), wire(trips, block)) }
	for _, row := range res.Rows {
		// Unix beats Parrot: the adapter moves every byte once more,
		// through the trap buffer.
		if row.UnixCopies != 1 || row.ParrotCopies != 2 {
			t.Errorf("%s: Unix %.2f and Parrot %.2f copies per byte, want 1 and 2",
				fmtBlock(row.BlockSize), row.UnixCopies, row.ParrotCopies)
		}
		// Parrot on a local disk beats CFS: it never touches the wire,
		// and CFS pays one whole round trip for every block, whatever
		// its size — so its bytes per trip grow with the block...
		if row.CFSTrips != 1 {
			t.Errorf("%s: CFS %.2f round trips per block, want 1", fmtBlock(row.BlockSize), row.CFSTrips)
		}
		// ...while NFS is flat: 4 KB per round trip no matter the
		// application block size.
		if perTrip := float64(row.BlockSize) / row.NFSTrips; perTrip != 4096 {
			t.Errorf("%s: NFS moves %.0f bytes per round trip, want 4096", fmtBlock(row.BlockSize), perTrip)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	cfs, nfs := pricedMBps(last.CFSTrips, last.BlockSize), pricedMBps(last.NFSTrips, last.BlockSize)
	if !(cfs > 2*nfs) {
		t.Errorf("CFS (%.0f MB/s on the simulated link) should far exceed NFS (%.0f)", cfs, nfs)
	}
	if small := pricedMBps(first.CFSTrips, first.BlockSize); !(cfs > 2*small) {
		t.Errorf("CFS bandwidth should rise with block size: %.0f -> %.0f MB/s on the simulated link", small, cfs)
	}
	if small := pricedMBps(first.NFSTrips, first.BlockSize); nfs > 1.01*small {
		t.Errorf("NFS bandwidth should be flat in block size: %.0f -> %.0f MB/s on the simulated link", small, nfs)
	}
}

func TestScaleFiguresShape(t *testing.T) {
	for _, fig := range []string{"fig6", "fig7", "fig8"} {
		res, err := RunScale(fig)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 8 {
			t.Fatalf("%s rows = %d", fig, len(res.Rows))
		}
		one := res.Rows[0].ThroughputMBps
		eight := res.Rows[7].ThroughputMBps
		switch fig {
		case "fig6":
			if one < 80 || one > 115 {
				t.Errorf("fig6 1 server = %.1f, want ~100", one)
			}
			if eight < 250 || eight > 320 {
				t.Errorf("fig6 8 servers = %.1f, want ~300", eight)
			}
		case "fig7":
			three := res.Rows[2].ThroughputMBps
			if one > three/2 {
				t.Errorf("fig7: 1 server (%.1f) should be far below 3 servers (%.1f)", one, three)
			}
			if three < 200 {
				t.Errorf("fig7: 3 servers = %.1f, want near backplane", three)
			}
		case "fig8":
			if one < 5 || one > 18 {
				t.Errorf("fig8 1 server = %.1f, want ~disk speed", one)
			}
			if eight < one*4 {
				t.Errorf("fig8: no linear scaling (%.1f -> %.1f)", one, eight)
			}
		}
		if res.Render() == "" {
			t.Error("empty render")
		}
	}
}

func TestSP5TableShape(t *testing.T) {
	cfg := workload.SP5Config{
		Libraries:    40,
		LibSize:      8 << 10,
		SearchMisses: 3,
		ConfigFiles:  20,
		Events:       8,
		EventRead:    8 << 10,
		EventWrite:   4 << 10,
		EventCompute: 5 * time.Millisecond,
	}
	// Scale the WAN latency down so the test finishes quickly; the
	// ordering WAN > LAN > local is latency-scale invariant.
	links := SP5Links{
		LAN: netsim.LinkProfile{Latency: 100 * time.Microsecond, Bandwidth: 12_500_000},
		WAN: netsim.LinkProfile{Latency: 4 * time.Millisecond, Bandwidth: 12_500_000},
	}
	res, err := RunSP5Table(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]workload.SP5Result{}
	for _, r := range res.Rows {
		byName[r.Config] = r.Result
	}
	unix, lanNFS, lanTSS, wanTSS := byName["Unix"], byName["LAN / NFS"], byName["LAN / TSS"], byName["WAN / TSS"]

	// Init blows up by a large factor on any remote configuration.
	for name, r := range map[string]workload.SP5Result{"LAN / NFS": lanNFS, "LAN / TSS": lanTSS, "WAN / TSS": wanTSS} {
		if r.InitTime < 4*unix.InitTime {
			t.Errorf("%s init %v vs Unix %v: want order-of-magnitude blowup", name, r.InitTime, unix.InitTime)
		}
	}
	// LAN/TSS comparable to LAN/NFS (within 2.5x either way).
	ratio := float64(lanTSS.InitTime) / float64(lanNFS.InitTime)
	if ratio > 2.5 || ratio < 0.4 {
		t.Errorf("LAN TSS/NFS init ratio = %.2f, want comparable", ratio)
	}
	// Events stay within a small factor of local (compute dominated).
	for name, r := range map[string]workload.SP5Result{"LAN / NFS": lanNFS, "LAN / TSS": lanTSS} {
		if r.TimePerEvent > 3*unix.TimePerEvent {
			t.Errorf("%s time/event %v vs Unix %v: want within ~2-3x", name, r.TimePerEvent, unix.TimePerEvent)
		}
	}
	// WAN init worse than LAN init.
	if wanTSS.InitTime < lanTSS.InitTime {
		t.Errorf("WAN init %v should exceed LAN init %v", wanTSS.InitTime, lanTSS.InitTime)
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := DefaultFig9()
	cfg.RecordSize = 64 << 10 // shrink for test speed; same dynamics
	cfg.Budget = int64(cfg.Records) * int64(cfg.RecordSize) * 3
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllReadable {
		t.Error("data lost despite repairs")
	}
	// The auditor digests replicas where they live: no content moves.
	if res.AuditWireBytes != 0 {
		t.Errorf("audits made the servers send %d content bytes, want 0", res.AuditWireBytes)
	}
	// The timeline must reach the budget, dip at each failure, and
	// re-reach the budget after each repair.
	budgetMB := float64(cfg.Budget) / (1 << 20)
	var reached, dips, repairs int
	for _, p := range res.Points {
		switch {
		case strings.Contains(p.Event, "budget reached"), strings.Contains(p.Event, "repaired"):
			if p.StoredMB < budgetMB*0.99 {
				t.Errorf("at %q stored %.2f MB < budget %.2f", p.Event, p.StoredMB, budgetMB)
			}
			if strings.Contains(p.Event, "repaired") {
				repairs++
			} else {
				reached++
			}
		case strings.Contains(p.Event, "failure"):
			if p.StoredMB >= budgetMB {
				t.Errorf("failure %q did not reduce stored bytes", p.Event)
			}
			dips++
		}
	}
	if reached != 1 || dips != 3 || repairs != 3 {
		t.Errorf("timeline: reached=%d dips=%d repairs=%d, want 1/3/3", reached, dips, repairs)
	}
}

// The cache sweep must show the disk-bound -> switch-bound flip as the
// cache crosses dataset/servers (1280 MB / 3 ≈ 427 MB).
func TestCacheSweepAblation(t *testing.T) {
	res := RunCacheSweep(3, []int64{64, 480, 2048})
	small, mid, big := res.Rows[0].Result, res.Rows[1].Result, res.Rows[2].Result
	if small.ThroughputMBps > 100 {
		t.Errorf("64MB cache = %.1f MB/s, want disk-bound", small.ThroughputMBps)
	}
	if mid.ThroughputMBps < 200 || big.ThroughputMBps < 200 {
		t.Errorf("big caches = %.1f / %.1f MB/s, want switch-bound", mid.ThroughputMBps, big.ThroughputMBps)
	}
	if small.HitRate > 0.5 || mid.HitRate < 0.9 {
		t.Errorf("hit rates = %.2f / %.2f", small.HitRate, mid.HitRate)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}
