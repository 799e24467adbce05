package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"tss/internal/abstraction"
	"tss/internal/gems"
	"tss/internal/netsim"
	"tss/internal/obs"
)

// Figure 9 — Data Preservation in the GEMS distributed shared
// database. The paper enters a 14 GB dataset with a 40 GB budget; the
// replicator fills the budget, then three induced failures (data
// forcibly deleted from 1, 5, and 10 disks) are each detected by the
// auditor and repaired by the replicator. The plotted quantity is
// total stored bytes over time.
//
// Scaled here by 1000x (14 MB / 40 MB / 20 servers) — the dynamics
// under test are those of the auditor/replicator protocol, not of the
// disks. Each disk is a Chirp server on loopback, so the figure also
// reports what an audit costs on the wire: the auditor digests every
// replica where it lives and moves no file content.

// Fig9Point is one sample of the preservation timeline.
type Fig9Point struct {
	Step     int
	StoredMB float64
	Event    string // non-empty when something notable happened
}

// Fig9Result is the full timeline.
type Fig9Result struct {
	Points []Fig9Point
	// Final sanity: all records readable at the end.
	AllReadable bool
	// AuditWireBytes is the file content the servers sent during every
	// audit pass (chirp_server.bytes_read).
	AuditWireBytes int64
}

// Fig9Config scales the experiment.
type Fig9Config struct {
	Servers    int
	Records    int
	RecordSize int
	Budget     int64
	// FailureSizes lists the induced failures: how many disks to wipe
	// at each failure point.
	FailureSizes []int
}

// DefaultFig9 is the 1000x-scaled version of the paper's run.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Servers:      20,
		Records:      14,
		RecordSize:   1 << 20, // 14 records x 1 MB = 14 MB "dataset"
		Budget:       40 << 20,
		FailureSizes: []int{1, 5, 10},
	}
}

// RunFig9 executes the preservation timeline.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	env := NewEnv()
	defer env.Close()
	env.Metrics = obs.NewRegistry()
	sent := env.Metrics.Counter("chirp_server.bytes_read")

	var servers []abstraction.DataServer
	for i := 0; i < cfg.Servers; i++ {
		name := fmt.Sprintf("disk%02d", i)
		cli, _, err := env.StartChirp(name, netsim.Loopback)
		if err != nil {
			return nil, err
		}
		servers = append(servers, abstraction.DataServer{Name: name, FS: cli, Dir: "/gems"})
	}
	db, err := gems.NewDSDB(gems.NewMemIndex(), servers)
	if err != nil {
		return nil, err
	}
	auditor := &gems.Auditor{DB: db}
	replicator := &gems.Replicator{DB: db, BudgetBytes: cfg.Budget}

	res := &Fig9Result{}
	step := 0
	sample := func(event string) error {
		stored, err := db.StoredBytes()
		if err != nil {
			return err
		}
		res.Points = append(res.Points, Fig9Point{
			Step:     step,
			StoredMB: float64(stored) / (1 << 20),
			Event:    event,
		})
		step++
		return nil
	}

	// Ingest the dataset: one copy of each record.
	for i := 0; i < cfg.Records; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, cfg.RecordSize)
		if _, err := db.Put(fmt.Sprintf("dataset/part%02d", i), map[string]string{"set": "fig9"}, payload); err != nil {
			return nil, err
		}
	}
	if err := sample("dataset accepted"); err != nil {
		return nil, err
	}

	// fillBudget replicates step by step, sampling the climb.
	fillBudget := func(label string) error {
		for {
			did, err := replicator.Step()
			if err != nil {
				return err
			}
			if !did {
				break
			}
			if err := sample(""); err != nil {
				return err
			}
		}
		return sample(label)
	}
	if err := fillBudget("budget reached"); err != nil {
		return nil, err
	}

	// Induced failures: forcibly delete all GEMS data on n disks, then
	// audit and repair.
	for _, n := range cfg.FailureSizes {
		for i := 0; i < n; i++ {
			srv := servers[i]
			ents, err := srv.FS.ReadDir("/gems")
			if err != nil {
				return nil, err
			}
			for _, e := range ents {
				srv.FS.Unlink("/gems/" + e.Name)
			}
		}
		before := sent.Load()
		report, err := auditor.Audit()
		if err != nil {
			return nil, err
		}
		res.AuditWireBytes += sent.Load() - before
		if err := sample(fmt.Sprintf("failure on %d disks: %d replicas lost", n, report.Missing)); err != nil {
			return nil, err
		}
		if err := fillBudget(fmt.Sprintf("repaired after %d-disk failure", n)); err != nil {
			return nil, err
		}
	}

	// Final verification.
	res.AllReadable = true
	recs, err := db.Index().List()
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if _, err := db.Read(rec); err != nil {
			res.AllReadable = false
		}
	}
	return res, nil
}

// Render prints the timeline.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: Data Preservation in the GEMS DSDB (scaled 1000x: 14MB data, 40MB budget, 20 disks)\n")
	b.WriteString("paper shape: replicate to budget; each induced failure dips stored bytes, repair restores them\n")
	fmt.Fprintf(&b, "%-6s %10s  %s\n", "STEP", "STORED", "EVENT")
	for _, p := range r.Points {
		if p.Event == "" {
			continue // only label the interesting points in the table
		}
		fmt.Fprintf(&b, "%-6d %7.1f MB  %s\n", p.Step, p.StoredMB, p.Event)
	}
	fmt.Fprintf(&b, "content bytes sent by the servers during audits: %d\n", r.AuditWireBytes)
	fmt.Fprintf(&b, "all records readable at end: %v\n", r.AllReadable)
	return b.String()
}
