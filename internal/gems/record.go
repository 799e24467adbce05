// Package gems implements the distributed shared database abstraction
// (DSDB, §5) and the GEMS preservation system built on it (§9):
// Grid-Enabled Molecular Simulations.
//
// A DSDB stores file data on ordinary file servers and indexes it in a
// database of records — attributes, size, checksum, and the list of
// replicas. Users query the database for matching records and then
// access the data directly on the file servers.
//
// GEMS adds preservation: an *auditor* periodically verifies the
// location and integrity of every replica, and a *replicator* repairs
// damage and fills the user's storage budget with additional copies
// (Figure 9).
package gems

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Replica is one stored copy of a record's data.
type Replica struct {
	Server string `json:"server"`
	Path   string `json:"path"`
}

// Record is one indexed dataset entry.
type Record struct {
	ID       string            `json:"id"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Size     int64             `json:"size"`
	Checksum string            `json:"checksum"` // hex SHA-256 of the content
	Replicas []Replica         `json:"replicas"`
}

// Clone deep-copies a record.
func (r Record) Clone() Record {
	c := r
	c.Attrs = make(map[string]string, len(r.Attrs))
	for k, v := range r.Attrs {
		c.Attrs[k] = v
	}
	c.Replicas = append([]Replica(nil), r.Replicas...)
	return c
}

// Matches reports whether the record has every attribute in query with
// the exact value.
func (r Record) Matches(query map[string]string) bool {
	for k, v := range query {
		if r.Attrs[k] != v {
			return false
		}
	}
	return true
}

// sha256Hex is the form of Record.Checksum: what vfs.ChecksumFile
// returns for vfs.AlgoSHA256, so a digest taken where a replica lives
// compares directly with the record.
func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Index is the database interface of the DSDB. Implementations must be
// safe for concurrent use.
type Index interface {
	Insert(r Record) error
	Update(r Record) error
	Delete(id string) error
	Get(id string) (Record, bool, error)
	Query(attrs map[string]string) ([]Record, error)
	List() ([]Record, error)
}

// MemIndex is the in-memory reference implementation of Index.
type MemIndex struct {
	mu      sync.Mutex
	records map[string]Record
}

var _ Index = (*MemIndex)(nil)

// NewMemIndex returns an empty index.
func NewMemIndex() *MemIndex {
	return &MemIndex{records: make(map[string]Record)}
}

// Insert adds a new record; the ID must be unused.
func (m *MemIndex) Insert(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.records[r.ID]; exists {
		return fmt.Errorf("gems: record %q already exists", r.ID)
	}
	m.records[r.ID] = r.Clone()
	return nil
}

// Update replaces an existing record.
func (m *MemIndex) Update(r Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.records[r.ID]; !exists {
		return fmt.Errorf("gems: record %q does not exist", r.ID)
	}
	m.records[r.ID] = r.Clone()
	return nil
}

// Delete removes a record; deleting a missing record is a no-op.
func (m *MemIndex) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.records, id)
	return nil
}

// Get fetches one record by ID.
func (m *MemIndex) Get(id string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[id]
	if !ok {
		return Record{}, false, nil
	}
	return r.Clone(), true, nil
}

// Query returns records matching every given attribute, sorted by ID.
func (m *MemIndex) Query(attrs map[string]string) ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Record
	for _, r := range m.records {
		if r.Matches(attrs) {
			out = append(out, r.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// List returns all records sorted by ID.
func (m *MemIndex) List() ([]Record, error) {
	return m.Query(nil)
}
