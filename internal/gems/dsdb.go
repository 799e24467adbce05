package gems

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"tss/internal/abstraction"
	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// DSDB is the distributed shared database abstraction of §5: file data
// on file servers, indexed by a database of records; clients query the
// database and then access the data directly with the adapter.
type DSDB struct {
	idx     Index
	servers []abstraction.DataServer
	byName  map[string]*abstraction.DataServer

	mu   sync.Mutex
	next int // round-robin placement cursor
}

// NewDSDB assembles a DSDB from an index (local or remote) and data
// servers, preparing each server's storage directory.
func NewDSDB(idx Index, servers []abstraction.DataServer) (*DSDB, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("gems: need at least one data server")
	}
	d := &DSDB{idx: idx, servers: servers, byName: make(map[string]*abstraction.DataServer)}
	for i := range servers {
		s := &d.servers[i]
		if s.Dir == "" {
			s.Dir = "/gems"
		}
		n, err := pathutil.Norm(s.Dir)
		if err != nil {
			return nil, vfs.EINVAL
		}
		s.Dir = n
		if _, dup := d.byName[s.Name]; dup {
			return nil, fmt.Errorf("gems: duplicate server name %q", s.Name)
		}
		d.byName[s.Name] = s
		if err := vfs.MkdirAll(s.FS, s.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("gems: preparing %s:%s: %w", s.Name, s.Dir, err)
		}
	}
	return d, nil
}

// Index exposes the database.
func (d *DSDB) Index() Index { return d.idx }

// Servers lists the participating data servers.
func (d *DSDB) Servers() []abstraction.DataServer { return d.servers }

func (d *DSDB) server(name string) *abstraction.DataServer { return d.byName[name] }

func (d *DSDB) pickServer() *abstraction.DataServer {
	d.mu.Lock()
	s := &d.servers[d.next%len(d.servers)]
	d.next++
	d.mu.Unlock()
	return s
}

// replicaPath names the data file for one replica of a record. Record
// IDs are free-form and may contain slashes; they are flattened so
// every replica lives directly in the abstraction's distinguishable
// directory (which is what makes manual recovery possible, §5). The
// flattening is reversible, so two IDs never share a file and
// RecoverIndex can name a replica's record from its file name.
func replicaPath(dir, id string, n int) string {
	return pathutil.Join(dir, fmt.Sprintf("%s.rep%d", flatten.Replace(id), n))
}

var (
	flatten   = strings.NewReplacer("%", "%25", "/", "%2F")
	unflatten = strings.NewReplacer("%25", "%", "%2F", "/")
)

// idOf reverses the flattening of a replica file name's stem; a stem
// that did not come from replicaPath names its record verbatim.
func idOf(stem string) string {
	id := unflatten.Replace(stem)
	if flatten.Replace(id) != stem {
		return stem
	}
	return id
}

// Put stores data under a fresh record with the given attributes,
// placing the first replica on the next server, and indexes it.
func (d *DSDB) Put(id string, attrs map[string]string, data []byte) (Record, error) {
	srv := d.pickServer()
	path := replicaPath(srv.Dir, id, 0)
	// Stored through the copy engine with verification: the data file is
	// digest-checked end to end before the record is indexed.
	if err := vfs.PutBytes(context.Background(), vfs.Loc{FS: srv.FS, Path: path},
		0o644, data, vfs.CopyOptions{Verify: true}); err != nil {
		return Record{}, fmt.Errorf("gems: storing %s on %s: %w", id, srv.Name, err)
	}
	rec := Record{
		ID:       id,
		Attrs:    attrs,
		Size:     int64(len(data)),
		Checksum: sha256Hex(data),
		Replicas: []Replica{{Server: srv.Name, Path: path}},
	}
	if err := d.idx.Insert(rec); err != nil {
		srv.FS.Unlink(path) // undo the orphan
		return Record{}, err
	}
	return rec, nil
}

// Open returns the data of the first reachable, intact replica. Broken
// replicas are skipped — this is the failure coherence of the DSDB.
func (d *DSDB) Open(rec Record) (vfs.File, error) {
	var lastErr error = vfs.ENOENT
	for _, rep := range rec.Replicas {
		srv := d.server(rep.Server)
		if srv == nil {
			continue
		}
		f, err := srv.FS.Open(rep.Path, vfs.O_RDONLY, 0)
		if err != nil {
			lastErr = err
			continue
		}
		return f, nil
	}
	return nil, lastErr
}

// Read fetches the full content of a record from any good replica,
// verifying the checksum on the bytes it returns: the transport's own
// digests cover the wire, not corruption at rest.
func (d *DSDB) Read(rec Record) ([]byte, error) {
	var lastErr error = vfs.ENOENT
	for _, rep := range rec.Replicas {
		srv := d.server(rep.Server)
		if srv == nil {
			continue
		}
		data, err := vfs.ReadFile(srv.FS, rep.Path)
		if err != nil {
			lastErr = err
			continue
		}
		if sha256Hex(data) != rec.Checksum {
			lastErr = vfs.EIO
			continue
		}
		return data, nil
	}
	return nil, lastErr
}

// Query returns records matching all attributes.
func (d *DSDB) Query(attrs map[string]string) ([]Record, error) {
	return d.idx.Query(attrs)
}

// Delete removes every replica and the record itself. Data is removed
// before metadata, mirroring the DSFS deletion order.
func (d *DSDB) Delete(id string) error {
	rec, found, err := d.idx.Get(id)
	if err != nil {
		return err
	}
	if !found {
		return vfs.ENOENT
	}
	for _, rep := range rec.Replicas {
		if srv := d.server(rep.Server); srv != nil {
			if err := srv.FS.Unlink(rep.Path); err != nil && vfs.AsErrno(err) != vfs.ENOENT {
				return err
			}
		}
	}
	return d.idx.Delete(id)
}

// AddReplica copies a record's data to a server not already holding a
// replica and updates the index. Placement spreads replicas: among the
// free servers, the one with the greatest minimum circular distance to
// the servers already holding copies is chosen, so that a failure
// wiping a batch of adjacent servers (Figure 9 forcibly deletes data
// from 1, 5, then 10 disks) cannot take out every copy of a record.
// io.EOF is returned when every server already holds a replica.
func (d *DSDB) AddReplica(rec Record) (Record, error) {
	n := len(d.servers)
	pos := make(map[string]int, n)
	for i := range d.servers {
		pos[d.servers[i].Name] = i
	}
	var holding []int
	held := make(map[int]bool, len(rec.Replicas))
	for _, rep := range rec.Replicas {
		if i, ok := pos[rep.Server]; ok {
			holding = append(holding, i)
			held[i] = true
		}
	}
	circDist := func(a, b int) int {
		dd := a - b
		if dd < 0 {
			dd = -dd
		}
		if n-dd < dd {
			dd = n - dd
		}
		return dd
	}
	var target *abstraction.DataServer
	bestDist := -1
	for i := range d.servers {
		if held[i] {
			continue
		}
		minDist := n + 1
		for _, h := range holding {
			if dd := circDist(i, h); dd < minDist {
				minDist = dd
			}
		}
		if minDist > bestDist {
			bestDist = minDist
			target = &d.servers[i]
		}
	}
	if target == nil {
		return rec, io.EOF
	}
	// Each source in turn is copied server to server through the copy
	// engine's window, and the new copy is indexed only once its digest,
	// taken where it lives, matches the record: a corrupt source or a
	// bad transfer costs one attempt, never a replica born corrupt (the
	// GEMS auditor then only has to catch rot).
	dst := vfs.Loc{FS: target.FS, Path: replicaPath(target.Dir, rec.ID, len(rec.Replicas))}
	var lastErr error = vfs.ENOENT
	for _, rep := range rec.Replicas {
		srv := d.server(rep.Server)
		if srv == nil {
			continue
		}
		src := vfs.Loc{FS: srv.FS, Path: rep.Path}
		if lastErr = vfs.Replicate(context.Background(), dst, src, vfs.AlgoSHA256, rec.Checksum); lastErr != nil {
			continue
		}
		rec.Replicas = append(rec.Replicas, Replica{Server: target.Name, Path: dst.Path})
		if err := d.idx.Update(rec); err != nil {
			target.FS.Unlink(dst.Path)
			return rec, err
		}
		return rec, nil
	}
	return rec, fmt.Errorf("gems: replicating %s to %s: no good source replica: %w", rec.ID, target.Name, lastErr)
}

// StoredBytes returns the total bytes of all indexed replicas — the
// quantity plotted in Figure 9.
func (d *DSDB) StoredBytes() (int64, error) {
	recs, err := d.idx.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, r := range recs {
		total += r.Size * int64(len(r.Replicas))
	}
	return total, nil
}
