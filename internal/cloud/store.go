package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"maacs/internal/core"
)

// Errors reported by the storage backends.
var (
	// ErrStoreClosed reports an operation against a store whose Close has
	// already run (the file backend refuses writes after its WAL is flushed).
	ErrStoreClosed = errors.New("cloud: store is closed")
)

// CTSwap is one conditional component replacement of a re-encryption commit:
// the stored record must still hold Expect at (RecordID, Index) for New to be
// installed. Pointer identity is sufficient because stored ciphertexts are
// immutable — a re-encryption swaps the pointer, never the pointee.
type CTSwap struct {
	RecordID string
	Index    int
	Expect   *core.Ciphertext
	New      *core.Ciphertext
}

// StoreInfo describes a storage backend for health reporting: which engine
// holds the records and the state of its write-ahead log (zero values for
// the memory-only backend). CompactErr carries the most recent
// background-compaction failure, if any — mutations stay durable through the
// WAL when compaction is sick, so the condition is reported here (and via
// /healthz) instead of failing committed writes.
type StoreInfo struct {
	Backend     string `json:"backend"`
	WALBytes    int64  `json:"wal_bytes"`
	WALSegments int    `json:"wal_segments,omitempty"`
	WALFsyncs   uint64 `json:"wal_fsyncs,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	CompactErr  string `json:"compact_err,omitempty"`
	Records     int    `json:"records"`
}

// Store is the record storage engine under the cloud server. Implementations
// must be safe for concurrent use and must treat stored records as immutable:
// every mutation installs a fresh *Record (copy-on-write), so a *Record
// handed out by Get, OwnerScan or Records stays internally consistent forever
// and may be read without any lock.
//
// The two implementations are MemStore (process-lifetime maps) and FileStore
// (crash-safe WAL + snapshot files).
type Store interface {
	// Get returns the stored record, or false. The returned record must not
	// be mutated by the caller.
	Get(id string) (*Record, bool)
	// Put inserts a new record; it fails with ErrAlreadyStored if the ID is
	// taken. The store owns rec afterwards.
	Put(rec *Record) error
	// Delete removes a record if ownerID matches the stored owner, returning
	// the removed record.
	Delete(id, ownerID string) (*Record, error)
	// OwnerScan visits the owner's records in sorted ID order until fn
	// returns false. fn must not mutate the records or call back into the
	// store.
	OwnerScan(ownerID string, fn func(*Record) bool)
	// ReplaceIfUnchanged atomically applies a re-encryption commit: every
	// swap's slot must still hold its Expect ciphertext, otherwise nothing is
	// applied and the error wraps ErrReEncryptConflict. All swaps must belong
	// to records of ownerID.
	ReplaceIfUnchanged(ownerID string, swaps []CTSwap) error
	// Records returns every stored record sorted by ID, as one consistent
	// view (the record census of Metrics).
	Records() []*Record
	// Info describes the backend for GET /healthz.
	Info() StoreInfo
	// Close flushes and releases backend resources. Operations after Close
	// fail with ErrStoreClosed on durable backends; MemStore stays usable.
	Close() error
}

// checkDeleteOwner enforces the owner check shared by every backend: only the
// record's owner may delete it (the paper's server executes owners' tasks
// correctly). There is no bypass: Server.Store refuses a record without an
// owner, so an empty ownerID never matches.
func checkDeleteOwner(rec *Record, ownerID string) error {
	if rec.OwnerID != ownerID {
		return fmt.Errorf("cloud: record %q belongs to %q, not %q", rec.ID, rec.OwnerID, ownerID)
	}
	return nil
}

// MemStore is the process-lifetime backend: the server's original maps behind
// the Store interface. A RWMutex instead of the old exclusive lock lets
// concurrent readers proceed; writers exclude only for the map update itself,
// never across any expensive computation.
type MemStore struct {
	mu   sync.RWMutex
	recs map[string]*Record
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[string]*Record)}
}

// Get returns the stored record.
func (m *MemStore) Get(id string) (*Record, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec, ok := m.recs[id]
	return rec, ok
}

// Put inserts a new record.
func (m *MemStore) Put(rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.putLocked(rec)
}

func (m *MemStore) putLocked(rec *Record) error {
	if _, ok := m.recs[rec.ID]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyStored, rec.ID)
	}
	m.recs[rec.ID] = rec
	return nil
}

// upsert installs a record unconditionally. WAL replay uses it: re-applying
// entries already folded into a snapshot must converge, not fail.
func (m *MemStore) upsert(rec *Record) {
	m.mu.Lock()
	m.recs[rec.ID] = rec
	m.mu.Unlock()
}

// remove drops a record unconditionally (WAL replay of a delete entry).
func (m *MemStore) remove(id string) {
	m.mu.Lock()
	delete(m.recs, id)
	m.mu.Unlock()
}

// Delete removes the record after the owner check.
func (m *MemStore) Delete(id, ownerID string) (*Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrRecordNotFound, id)
	}
	if err := checkDeleteOwner(rec, ownerID); err != nil {
		return nil, err
	}
	delete(m.recs, id)
	return rec, nil
}

// Len reports the number of stored records.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.recs)
}

func (m *MemStore) sortedIDsLocked() []string {
	out := make([]string, 0, len(m.recs))
	for id := range m.recs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// OwnerScan visits the owner's records in sorted ID order. The whole scan
// runs under the read lock, so it sees one consistent state; fn therefore
// must not call back into the store.
func (m *MemStore) OwnerScan(ownerID string, fn func(*Record) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, id := range m.sortedIDsLocked() {
		rec := m.recs[id]
		if rec.OwnerID != ownerID {
			continue
		}
		if !fn(rec) {
			return
		}
	}
}

// ReplaceIfUnchanged applies a re-encryption commit all-or-nothing.
func (m *MemStore) ReplaceIfUnchanged(_ string, swaps []CTSwap) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	clones, err := swapClones(swaps, func(id string) (*Record, bool) {
		rec, ok := m.recs[id]
		return rec, ok
	})
	if err != nil {
		return err
	}
	for id, cl := range clones {
		m.recs[id] = cl
	}
	return nil
}

// swapClones is the re-encryption commit of both stores. It checks that
// every swap's slot still holds its Expect ciphertext, then builds the
// post-swap records copy-on-write: each affected record is cloned once and
// all of its swaps land on the clone, so readers holding the stored record
// keep a consistent view. lookup reads a record as the store sees it under
// the caller's write lock; the caller installs the clones.
func swapClones(swaps []CTSwap, lookup func(id string) (*Record, bool)) (map[string]*Record, error) {
	for _, sw := range swaps {
		rec, ok := lookup(sw.RecordID)
		if !ok || sw.Index < 0 || sw.Index >= len(rec.Components) || rec.Components[sw.Index].CT != sw.Expect {
			return nil, fmt.Errorf("%w: record %q", ErrReEncryptConflict, sw.RecordID)
		}
	}
	clones := make(map[string]*Record)
	for _, sw := range swaps {
		cl := clones[sw.RecordID]
		if cl == nil {
			rec, _ := lookup(sw.RecordID)
			cl = rec.snapshot()
			clones[sw.RecordID] = cl
		}
		cl.Components[sw.Index].CT = sw.New
	}
	return clones, nil
}

// Records returns every stored record sorted by ID, as one consistent view.
func (m *MemStore) Records() []*Record {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Record, 0, len(m.recs))
	for _, id := range m.sortedIDsLocked() {
		out = append(out, m.recs[id])
	}
	return out
}

// Info describes the backend.
func (m *MemStore) Info() StoreInfo {
	return StoreInfo{Backend: "mem", Records: m.Len()}
}

// Close is a no-op: an in-memory store holds no external resources and stays
// usable (tests restart "servers" over the same store).
func (m *MemStore) Close() error { return nil }
