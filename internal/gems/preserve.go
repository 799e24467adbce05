package gems

import "tss/internal/vfs"

// The two active components of GEMS preservation (§9): the auditor
// verifies the location and integrity of data on file servers and
// notes problems; the replicator repairs them and fills the user's
// storage budget with additional copies.

// AuditReport summarizes one audit pass.
type AuditReport struct {
	Records         int // records examined
	ReplicasChecked int
	Missing         int // replicas whose data file is gone
	Corrupt         int // replicas whose content fails the checksum
	Unreachable     int // replicas on servers that did not answer
}

// Auditor periodically scans the database and verifies every replica.
// The content of each replica is digested where it lives (the Chirp
// checksum RPC, or a local read), so an audit moves no file data.
type Auditor struct {
	DB *DSDB
}

// Audit runs one pass. Replicas found missing or corrupt are removed
// from their records ("it makes note of these problems"); the
// replicator then re-replicates from the remaining copies. Replicas on
// unreachable servers are left alone: the server may only be
// temporarily offline, and dropping its entries would turn a transient
// failure into data loss.
func (a *Auditor) Audit() (AuditReport, error) {
	var rep AuditReport
	recs, err := a.DB.idx.List()
	if err != nil {
		return rep, err
	}
	rep.Records = len(recs)
	for _, rec := range recs {
		good := rec.Replicas[:0]
		for _, r := range rec.Replicas {
			rep.ReplicasChecked++
			srv := a.DB.server(r.Server)
			if srv == nil {
				rep.Unreachable++
				good = append(good, r)
				continue
			}
			sum, err := vfs.ChecksumFile(srv.FS, r.Path, vfs.AlgoSHA256)
			switch {
			case vfs.AsErrno(err) == vfs.ENOENT:
				rep.Missing++
			case err != nil:
				rep.Unreachable++
				good = append(good, r)
			case sum != rec.Checksum: // a size change is a digest change too
				rep.Corrupt++
			default:
				good = append(good, r)
			}
		}
		if len(good) < len(rec.Replicas) {
			rec.Replicas = append([]Replica(nil), good...)
			if err := a.DB.idx.Update(rec); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// Replicator fills the storage budget with copies. The user specifies
// the budget; the replicator works toward it, most-damaged records
// first (records with the fewest replicas are the closest to loss).
type Replicator struct {
	DB *DSDB
	// BudgetBytes is the total storage the dataset may consume across
	// all replicas (the 40 GB of Figure 9).
	BudgetBytes int64
}

// Step performs at most one replication and reports whether it did
// any work. Driving the loop one step at a time is what lets the
// Figure 9 experiment sample the stored-bytes curve as it climbs.
func (r *Replicator) Step() (bool, error) {
	recs, err := r.DB.idx.List()
	if err != nil {
		return false, err
	}
	stored, err := r.DB.StoredBytes()
	if err != nil {
		return false, err
	}
	// Fewest replicas first.
	var best *Record
	for i := range recs {
		rec := &recs[i]
		if len(rec.Replicas) == 0 {
			continue // unrecoverable: no source copy remains
		}
		if len(rec.Replicas) >= len(r.DB.servers) {
			continue
		}
		if stored+rec.Size > r.BudgetBytes {
			continue
		}
		if best == nil || len(rec.Replicas) < len(best.Replicas) {
			best = rec
		}
	}
	if best == nil {
		return false, nil
	}
	if _, err := r.DB.AddReplica(*best); err != nil {
		return false, err
	}
	return true, nil
}

// Run replicates until no further work fits the budget.
func (r *Replicator) Run() (steps int, err error) {
	for {
		did, err := r.Step()
		if err != nil {
			return steps, err
		}
		if !did {
			return steps, nil
		}
		steps++
	}
}
