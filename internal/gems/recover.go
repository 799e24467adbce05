package gems

import (
	"fmt"
	"regexp"
	"strconv"

	"tss/internal/abstraction"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// RecoverIndex rebuilds a lost database by rescanning the data on the
// file servers — the §5/§9 claim made executable: "In the DSDB, the
// database could even be recovered automatically by rescanning the
// existing file data."
//
// Replica files are named <flattened-id>.rep<N>, so the record ID and
// replica set are recoverable from the namespace alone; sizes come from
// stat and checksums are computed where the data lives (no content
// crosses the wire), and replicas of the same ID whose contents
// disagree are resolved by majority (ties favor the lowest-numbered
// replica). Free-form attributes are not stored beside the data and
// cannot be recovered; they return empty.
var replicaNameRE = regexp.MustCompile(`^(.+)\.rep(\d+)$`)

// RecoverIndex scans the servers' storage directories and returns a
// fresh index describing everything found.
func RecoverIndex(servers []abstraction.DataServer) (*MemIndex, error) {
	type found struct {
		rep      Replica
		n        int
		checksum string
		size     int64
	}
	byID := make(map[string][]found)
	var order []string

	for i := range servers {
		srv := &servers[i]
		dir := srv.Dir
		if dir == "" {
			dir = "/gems"
		}
		ents, err := srv.FS.ReadDir(dir)
		if err != nil {
			if vfs.AsErrno(err) == vfs.ENOENT {
				continue // server never held data for this abstraction
			}
			return nil, fmt.Errorf("gems: recover: scanning %s: %w", srv.Name, err)
		}
		for _, e := range ents {
			if e.IsDir {
				continue
			}
			m := replicaNameRE.FindStringSubmatch(e.Name)
			if m == nil {
				continue // foreign file in the directory
			}
			id := idOf(m[1])
			n, _ := strconv.Atoi(m[2])
			path := pathutil.Join(dir, e.Name)
			fi, err := srv.FS.Stat(path)
			if err != nil {
				continue // unreadable replica: skip
			}
			sum, err := vfs.ChecksumFile(srv.FS, path, vfs.AlgoSHA256)
			if err != nil {
				continue
			}
			if _, seen := byID[id]; !seen {
				order = append(order, id)
			}
			byID[id] = append(byID[id], found{
				rep:      Replica{Server: srv.Name, Path: path},
				n:        n,
				checksum: sum,
				size:     fi.Size,
			})
		}
	}

	idx := NewMemIndex()
	for _, id := range order {
		reps := byID[id]
		// Majority vote on content; ties go to the lowest replica
		// number (the original copy).
		votes := make(map[string]int)
		for _, f := range reps {
			votes[f.checksum]++
		}
		best := ""
		bestVotes := -1
		bestN := 1 << 30
		for _, f := range reps {
			v := votes[f.checksum]
			if v > bestVotes || (v == bestVotes && f.n < bestN) {
				best = f.checksum
				bestVotes = v
				bestN = f.n
			}
		}
		rec := Record{ID: id, Attrs: map[string]string{}}
		for _, f := range reps {
			if f.checksum != best {
				continue // corrupt or divergent: leave for the auditor
			}
			rec.Checksum = f.checksum
			rec.Size = f.size
			rec.Replicas = append(rec.Replicas, f.rep)
		}
		if len(rec.Replicas) > 0 {
			if err := idx.Insert(rec); err != nil {
				return nil, err
			}
		}
	}
	return idx, nil
}
