package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maacs/internal/core"
	"maacs/internal/engine"
)

// Errors reported by the server.
var (
	ErrRecordNotFound      = errors.New("cloud: record not found")
	ErrComponentNotFound   = errors.New("cloud: component not found")
	ErrAlreadyStored       = errors.New("cloud: record already stored")
	ErrDuplicateUpdateInfo = errors.New("cloud: duplicate update info")
	// ErrReEncryptConflict reports that a stored slot changed (another
	// re-encryption committed, or the record was deleted) between a window's
	// snapshot and its commit; the window was not applied.
	ErrReEncryptConflict = errors.New("cloud: concurrent modification during re-encryption")
	// ErrEmptyBatch rejects a re-encryption request that carries no items.
	ErrEmptyBatch = errors.New("cloud: re-encryption batch has no items")
	// ErrForeignCiphertext rejects an upload whose ciphertext names another
	// owner than the record: the record owner's revocations could not
	// re-encrypt it (core.Owner.RevocationUpdate refuses another owner's
	// ciphertext).
	ErrForeignCiphertext = errors.New("cloud: ciphertext of another owner")
)

// StoredComponent is one cell of the Fig. 2 record format: the CP-ABE
// ciphertext of the content key followed by the symmetrically encrypted data
// component.
type StoredComponent struct {
	Label  string
	CT     *core.Ciphertext
	Sealed []byte
}

// Record is an owner's uploaded data item.
type Record struct {
	ID         string
	OwnerID    string
	Components []StoredComponent
}

// snapshot copies the record shell and its component slice, sharing the
// component pointees. The stores use it for copy-on-write commits, where both
// sides stay under the store's immutability contract. A download never hands
// out a stored record: callers decode the served encoding (decodeComponents).
func (r *Record) snapshot() *Record {
	return &Record{
		ID:         r.ID,
		OwnerID:    r.OwnerID,
		Components: append([]StoredComponent(nil), r.Components...),
	}
}

// ReEncryptItem is one update-info set of a (possibly batched) re-encryption
// request: the update key of one authority rekey plus the owner-generated
// update information it applies.
type ReEncryptItem struct {
	UK  *core.UpdateKey
	UIs map[string]*core.UpdateInfo
}

// ReEncryptResult counts the work one item of a re-encryption request did.
type ReEncryptResult struct {
	Ciphertexts int `json:"ciphertexts"`
	Rows        int `json:"rows"`
}

// BatchReport is the outcome of a re-encryption request. The request commits
// window by window: on a mid-batch failure the error names the offending
// record and Committed lists exactly the record IDs whose slots were already
// replaced — the caller resubmits only items[NextItem:].
type BatchReport struct {
	// Items holds per-item counts (zero for items whose window never
	// committed).
	Items []ReEncryptResult `json:"items"`
	// Ciphertexts and Rows total the committed work.
	Ciphertexts int `json:"ciphertexts"`
	Rows        int `json:"rows"`
	// Window is the item cap per engine run: the server's SetBatchWindow
	// size, or the whole batch when that is smaller.
	Window int `json:"window"`
	// Windows counts the engine runs performed (committed windows plus, on
	// failure, none for the failing window).
	Windows int `json:"windows"`
	// NextItem is the index of the first item whose window did not commit:
	// len(Items) after a fully committed batch, the failing window's first
	// item after a mid-batch failure. A client on any transport resumes by
	// resubmitting items[NextItem:].
	NextItem int `json:"next_item"`
	// Committed lists the record IDs whose components were replaced, sorted.
	Committed []string `json:"committed"`
	// Engine sums the engine activity of every committed window's run.
	// WallNs is this request's own fan-out wall time. The job and cache
	// counters are process-wide deltas over those runs, so every other
	// engine user in the process during a run lands in them too: the
	// benchmark's readers, which decrypt in the server's process, show up in
	// a revocation's counts.
	Engine engine.Stats `json:"engine"`
}

// Metrics is the server's cumulative observability surface, exposed over
// GET /metrics and CloudServer.Metrics.
type Metrics struct {
	// Records is the number of records currently stored.
	Records int `json:"records"`
	// StoreRequests counts successful uploads (rejected uploads excluded).
	StoreRequests uint64 `json:"store_requests"`
	// RecordFetches / ComponentFetches count successful downloads (whole
	// records and single components); FetchedBytes totals the bytes served.
	// Failed lookups are not metered.
	RecordFetches    uint64 `json:"record_fetches"`
	ComponentFetches uint64 `json:"component_fetches"`
	FetchedBytes     uint64 `json:"fetched_bytes"`
	// ReEncryptRequests counts re-encryption requests (a batch counts once).
	ReEncryptRequests uint64 `json:"reencrypt_requests"`
	// ReEncryptItems counts update-info sets across all requests.
	ReEncryptItems uint64 `json:"reencrypt_items"`
	// ReEncryptedCiphertexts / ReEncryptedRows total the proxy work done.
	ReEncryptedCiphertexts uint64 `json:"reencrypted_ciphertexts"`
	ReEncryptedRows        uint64 `json:"reencrypted_rows"`
	// ReEncryptFailures counts re-encryption requests that failed after
	// validation (mid-batch engine errors, commit conflicts). Requests
	// rejected up front — unknown owner, overlapping items — count nowhere,
	// matching the meter-on-success contract.
	ReEncryptFailures uint64 `json:"reencrypt_failures"`
	// Engine accumulates the engine.Stats deltas of every re-encryption run
	// on this server. WallNs is the summed fan-out wall time of those runs;
	// the job and cache counters are process-wide deltas, so other engine
	// users in the process during a run count in them (see
	// BatchReport.Engine).
	Engine engine.Stats `json:"engine"`
	// Owners breaks the counters down per data owner.
	Owners map[string]OwnerStats `json:"owners,omitempty"`
	// Users breaks the download counters down per data consumer (only
	// attributed downloads — transport callers that do not identify a user
	// count in the cumulative counters alone).
	Users map[string]UserStats `json:"users,omitempty"`
	// Durations holds the per-operation request-latency histograms (store,
	// fetch, fetch_component, delete, reencrypt), in the cumulative le form
	// the Prometheus exposition renders. Operations never invoked are absent.
	Durations map[string]HistogramSnapshot `json:"durations,omitempty"`
}

// Operation labels of the request-duration histograms.
const (
	opStore          = "store"
	opFetch          = "fetch"
	opFetchComponent = "fetch_component"
	opDelete         = "delete"
	opReEncrypt      = "reencrypt"
)

// durationOps lists the instrumented operations in exposition order.
var durationOps = []string{opStore, opFetch, opFetchComponent, opDelete, opReEncrypt}

// Server is the cloud storage server: it stores records, serves downloads,
// and performs proxy re-encryption during revocation. It holds no secret key
// material and never sees a plaintext or content key.
//
// Record storage lives behind the Store interface — in-memory or file-backed
// (WAL + snapshot) — and the store carries its own synchronization. The
// server's mutex guards only the small counter state (metrics,
// per-owner/per-user rows, configuration) and is never held across a store
// operation, an engine run or any I/O, so downloads of different records
// proceed concurrently and a re-encryption holds the store's lock only for
// its commit.
type Server struct {
	sys   *core.System
	acct  *Accounting
	store Store

	// The download counters live outside the mutex: fetches are the lock-free
	// hot path, so their counters are atomics and the per-user rows live in a
	// sync.Map of atomic cells (noteDownload takes no lock at all).
	recordFetches    atomic.Uint64
	componentFetches atomic.Uint64
	fetchedBytes     atomic.Uint64
	userRows         sync.Map // uid → *userCounters

	// durs holds one latency histogram per operation. The map is built once
	// in NewServerWithStore and never written again, so lookups are lock-free.
	durs map[string]*LatencyHistogram

	// commitHook, when non-nil, runs between a re-encryption window's compute
	// and its commit; tests use it to inject commit-time conflicts.
	commitHook func()

	mu      sync.Mutex // guards everything below; never held across store/engine calls
	metrics Metrics
	owners  map[string]*OwnerStats
	window  int
}

// defaultBatchWindow is the re-encryption window a server starts with: at
// most this many update-info sets fuse into one engine run and commit.
const defaultBatchWindow = 64

// userCounters is one user's lock-free download counter row.
type userCounters struct {
	recordFetches    atomic.Uint64
	componentFetches atomic.Uint64
	fetchedBytes     atomic.Uint64
}

// defaultStore, when non-nil, overrides the backend NewServer installs. The
// test suite sets it (MAACS_STORE=file) to run every NewServer-based test
// against the file backend; production code leaves it nil, which means a
// fresh MemStore.
var defaultStore func(sys *core.System) Store

// NewServer creates a server over the system's public parameters, storing
// records in memory (the MemStore backend).
func NewServer(sys *core.System, acct *Accounting) *Server {
	if defaultStore != nil {
		return NewServerWithStore(sys, acct, defaultStore(sys))
	}
	return NewServerWithStore(sys, acct, NewMemStore())
}

// NewServerWithStore creates a server over an explicit storage backend. The
// server takes ownership: its lifecycle ends with Server.Close flushing the
// backend. A backend reopened from disk serves its previous records
// immediately.
func NewServerWithStore(sys *core.System, acct *Accounting, store Store) *Server {
	durs := make(map[string]*LatencyHistogram, len(durationOps))
	for _, op := range durationOps {
		durs[op] = &LatencyHistogram{}
	}
	return &Server{
		sys:    sys,
		acct:   acct,
		store:  store,
		durs:   durs,
		owners: make(map[string]*OwnerStats),
		window: defaultBatchWindow,
	}
}

// observe records one request's latency under its operation label. Every
// request counts, successful or not — latency is a serving property, unlike
// the meter-on-success accounting counters.
func (s *Server) observe(op string, start time.Time) {
	s.durs[op].Observe(time.Since(start))
}

// Close flushes and releases the storage backend (a file-backed store fsyncs
// and closes its WAL; further writes fail with ErrStoreClosed).
func (s *Server) Close() error { return s.store.Close() }

// StoreInfo describes the storage backend serving this server — the body of
// GET /healthz.
func (s *Server) StoreInfo() StoreInfo { return s.store.Info() }

// SetBatchWindow configures the window of ReEncrypt: at most n update-info
// sets are fused into one engine run, with the commit applied per window.
// n <= 0 restores the default window of 64.
func (s *Server) SetBatchWindow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = defaultBatchWindow
	}
	s.window = n
}

// ownerStatsLocked returns the mutable per-owner counter row, creating it on
// first touch. Caller holds s.mu.
func (s *Server) ownerStatsLocked(ownerID string) *OwnerStats {
	os := s.owners[ownerID]
	if os == nil {
		os = &OwnerStats{}
		s.owners[ownerID] = os
	}
	return os
}

// noteDownload folds one successful download into the cumulative counters
// and, when the request named a user, into that user's row. Downloads are the
// lock-free read path, so every counter here is an atomic: a fetch never
// contends with a metrics snapshot or a re-encryption commit.
func (s *Server) noteDownload(userID string, size int, component bool) {
	if component {
		s.componentFetches.Add(1)
	} else {
		s.recordFetches.Add(1)
	}
	s.fetchedBytes.Add(uint64(size))
	if userID == "" {
		return
	}
	row, ok := s.userRows.Load(userID)
	if !ok {
		row, _ = s.userRows.LoadOrStore(userID, &userCounters{})
	}
	uc := row.(*userCounters)
	if component {
		uc.componentFetches.Add(1)
	} else {
		uc.recordFetches.Add(1)
	}
	uc.fetchedBytes.Add(uint64(size))
}

// Store uploads a record (Server↔Owner channel). The record must carry an ID
// and an owner: HTTP cannot address an empty ID, and because no owner-less
// record is ever stored, an empty owner never passes the delete owner check.
// Every component needs its own non-empty label: a component fetch returns
// the component a label names, and FetchWire reads an empty label as the
// whole record. Every ciphertext must name the record's owner, so both wire
// replies name one owner and the owner's revocations cover the record.
// Rejected uploads are not metered: the upload never happened, so it must not
// inflate the Table IV communication tally.
func (s *Server) Store(rec *Record) error {
	defer s.observe(opStore, time.Now())
	if rec.ID == "" {
		return errors.New("cloud: record ID is empty")
	}
	if rec.OwnerID == "" {
		return fmt.Errorf("cloud: record %q names no owner", rec.ID)
	}
	size := 0
	for i, c := range rec.Components {
		if c.Label == "" {
			return fmt.Errorf("cloud: record %q component %d has no label", rec.ID, i)
		}
		for _, prev := range rec.Components[:i] {
			if prev.Label == c.Label {
				return fmt.Errorf("cloud: record %q labels two components %q", rec.ID, c.Label)
			}
		}
		if c.CT.OwnerID != rec.OwnerID {
			return fmt.Errorf("%w: record %q of %q, component %q of %q",
				ErrForeignCiphertext, rec.ID, rec.OwnerID, c.Label, c.CT.OwnerID)
		}
		size += c.CT.Size(s.sys.Params) + len(c.Sealed)
	}
	if err := s.store.Put(rec); err != nil {
		return err
	}
	s.mu.Lock()
	s.metrics.StoreRequests++
	s.ownerStatsLocked(rec.OwnerID).StoreRequests++
	s.mu.Unlock()
	s.acct.Add(ChanServerOwner, size)
	return nil
}

// Delete removes a record. Only its owner may delete it; the store checks
// the claimed owner against the stored record (the paper's server executes
// owners' tasks correctly).
func (s *Server) Delete(recordID, ownerID string) (*Record, error) {
	defer s.observe(opDelete, time.Now())
	return s.store.Delete(recordID, ownerID)
}

// CiphertextsOf returns the content-key ciphertexts of an owner's records
// (the inputs the owner needs to build revocation update information), in
// stable order: records sorted by ID, components in stored order. The
// pointees are immutable, so a concurrent re-encryption (which installs
// fresh records with fresh ciphertexts) cannot race with the caller.
func (s *Server) CiphertextsOf(ownerID string) []*core.Ciphertext {
	var out []*core.Ciphertext
	s.store.OwnerScan(ownerID, func(rec *Record) bool {
		for i := range rec.Components {
			out = append(out, rec.Components[i].CT)
		}
		return true
	})
	return out
}

// Metrics returns a copy of the server's cumulative counters, including the
// per-owner breakdown (owners that stored records or issued re-encryptions)
// and the per-user download breakdown (users that fetched records or
// components through an attributed path). Counter rows and the record census
// are read at slightly different instants — the counters under the server
// mutex, the records from the store — so under concurrent traffic the two
// can differ by in-flight operations.
func (s *Server) Metrics() Metrics {
	perOwner := make(map[string]int)
	records := 0
	for _, rec := range s.store.Records() {
		perOwner[rec.OwnerID]++
		records++
	}

	s.mu.Lock()
	m := s.metrics
	m.Owners = make(map[string]OwnerStats, len(s.owners))
	for id, os := range s.owners {
		row := *os
		row.Records = perOwner[id]
		m.Owners[id] = row
	}
	s.mu.Unlock()

	m.Records = records
	// Owners whose records were loaded from disk have no counter row yet;
	// they still show up with their record count.
	for id, n := range perOwner {
		if _, ok := m.Owners[id]; !ok {
			m.Owners[id] = OwnerStats{Records: n}
		}
	}
	// The download counters and per-user rows are atomics outside the mutex.
	m.RecordFetches = s.recordFetches.Load()
	m.ComponentFetches = s.componentFetches.Load()
	m.FetchedBytes = s.fetchedBytes.Load()
	m.Users = make(map[string]UserStats)
	s.userRows.Range(func(k, v any) bool {
		uc := v.(*userCounters)
		m.Users[k.(string)] = UserStats{
			RecordFetches:    uc.recordFetches.Load(),
			ComponentFetches: uc.componentFetches.Load(),
			FetchedBytes:     uc.fetchedBytes.Load(),
		}
		return true
	})
	if len(m.Users) == 0 {
		m.Users = nil
	}
	m.Durations = make(map[string]HistogramSnapshot, len(durationOps))
	for _, op := range durationOps {
		if snap := s.durs[op].Snapshot(); snap.Count > 0 {
			m.Durations[op] = snap
		}
	}
	if len(m.Durations) == 0 {
		m.Durations = nil
	}
	return m
}

// ReEncrypt runs the server's half of a revocation (Section V-C, data
// re-encryption): it applies each item's owner-supplied update information to
// the affected stored ciphertexts. It is the one re-encryption entry point;
// RPC CloudServer.ReEncrypt, RemoteServer.ReEncrypt and HTTP
// POST /owners/{id}/reencrypt/batch all call it.
//
// The items stream through bounded engine runs of at most SetBatchWindow
// items each (64 by default). Each window snapshots its slots from the
// store, fans out with no lock held — so downloads and uploads proceed while
// the expensive group arithmetic runs — and commits its swaps atomically
// through Store.ReplaceIfUnchanged, which re-validates that every slot still
// holds the snapshot it was computed from (ErrReEncryptConflict otherwise).
//
// Items must target disjoint ciphertexts — chained version updates of the
// same ciphertext need sequential requests. An empty batch, overlapping items
// and an unknown owner are rejected up front with a nil report and nothing
// metered. Each window is all-or-nothing and metered only on commit; on a
// mid-batch failure earlier windows stay committed and the returned
// BatchReport names exactly the committed record IDs alongside the error.
func (s *Server) ReEncrypt(ownerID string, items []ReEncryptItem) (*BatchReport, error) {
	defer s.observe(opReEncrypt, time.Now())
	if len(items) == 0 {
		return nil, ErrEmptyBatch
	}
	// An update-info set applies to exactly one stored slot; overlapping
	// items would make two jobs race for the same slot (and the fused run
	// cannot order chained version bumps), so reject them up front.
	claimed := make(map[string]int)
	for i, it := range items {
		for id := range it.UIs {
			if j, dup := claimed[id]; dup {
				return nil, fmt.Errorf("%w: ciphertext %q in items %d and %d", ErrDuplicateUpdateInfo, id, j, i)
			}
			claimed[id] = i
		}
	}

	ownerKnown := false
	s.store.OwnerScan(ownerID, func(*Record) bool {
		ownerKnown = true
		return false
	})
	if !ownerKnown {
		return nil, fmt.Errorf("%w: %q has no stored records", ErrUnknownOwner, ownerID)
	}

	s.mu.Lock()
	window := min(s.window, len(items))
	s.mu.Unlock()
	report := &BatchReport{
		Items:     make([]ReEncryptResult, len(items)),
		Window:    window,
		Committed: []string{},
	}
	committed := make(map[string]bool)
	for start := 0; start < len(items); start += window {
		end := min(start+window, len(items))
		if err := s.reencryptWindow(ownerID, items, start, end, claimed, report, committed); err != nil {
			s.mu.Lock()
			s.metrics.ReEncryptFailures++
			s.ownerStatsLocked(ownerID).ReEncryptFailures++
			s.mu.Unlock()
			report.Committed = sortedKeys(committed)
			report.NextItem = start
			return report, err
		}
	}
	report.Committed = sortedKeys(committed)
	report.NextItem = len(items)
	s.mu.Lock()
	s.metrics.ReEncryptRequests++
	s.ownerStatsLocked(ownerID).ReEncryptRequests++
	s.mu.Unlock()
	return report, nil
}

// windowWork is one slot of a window's snapshot: where the result commits
// (record ID and component index) and the immutable inputs it is computed
// from.
type windowWork struct {
	recID string
	idx   int
	item  int
	ct    *core.Ciphertext
	ui    *core.UpdateInfo
}

// reencryptWindow runs items[start:end] through one engine fan-out:
// snapshot from the store, compute with no lock held, commit-or-reject
// through ReplaceIfUnchanged. On success the window's work is folded into
// report, the committed set, the accounting meter and the cumulative +
// per-owner metrics; on error nothing from this window is applied.
func (s *Server) reencryptWindow(ownerID string, items []ReEncryptItem, start, end int, claimed map[string]int, report *BatchReport, committed map[string]bool) error {
	// Snapshot the window's affected slots in stable record order. Stored
	// records and their ciphertexts are immutable, so the captured pointers
	// stay valid without any lock.
	var work []windowWork
	s.store.OwnerScan(ownerID, func(rec *Record) bool {
		for i := range rec.Components {
			ctID := rec.Components[i].CT.ID
			item, ok := claimed[ctID]
			if !ok || item < start || item >= end {
				continue
			}
			work = append(work, windowWork{
				recID: rec.ID,
				idx:   i,
				item:  item,
				ct:    rec.Components[i].CT,
				ui:    items[item].UIs[ctID],
			})
		}
		return true
	})

	reencs := make([]*core.Ciphertext, len(work))
	touched := make([]int, len(work))
	stats, err := engine.Measure(func() error {
		return engine.Default().Run(len(work), func(j int) error {
			w := work[j]
			reenc, n, err := core.ReEncrypt(s.sys, w.ct, w.ui, items[w.item].UK)
			if err != nil {
				return fmt.Errorf("re-encrypt record %q: %w", w.recID, err)
			}
			reencs[j] = reenc
			touched[j] = n
			return nil
		})
	})
	if err != nil {
		return err
	}

	// Commit only if every slot still holds the ciphertext this window was
	// computed from; a concurrent writer (another batch, a delete) means the
	// results would overwrite state they were not derived from. The store
	// applies the whole window atomically under its lock.
	if s.commitHook != nil {
		s.commitHook()
	}
	swaps := make([]CTSwap, len(work))
	for j, w := range work {
		swaps[j] = CTSwap{RecordID: w.recID, Index: w.idx, Expect: w.ct, New: reencs[j]}
	}
	if err := s.store.ReplaceIfUnchanged(ownerID, swaps); err != nil {
		return err
	}

	winCts, winRows := 0, 0
	for j, w := range work {
		report.Items[w.item].Ciphertexts++
		report.Items[w.item].Rows += touched[j]
		winCts++
		winRows += touched[j]
		committed[w.recID] = true
	}
	report.Ciphertexts += winCts
	report.Rows += winRows
	report.Windows++
	report.Engine = report.Engine.Add(stats)

	// Meter the window's items and fold them into the cumulative and
	// per-owner counters — committed windows stay observable even if a later
	// window of the same batch fails.
	for i := start; i < end; i++ {
		for _, ui := range items[i].UIs {
			s.acct.Add(ChanServerOwner, ui.Size(s.sys.Params))
		}
		s.acct.Add(ChanServerOwner, items[i].UK.Size(s.sys.Params))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.ReEncryptItems += uint64(end - start)
	s.metrics.ReEncryptedCiphertexts += uint64(winCts)
	s.metrics.ReEncryptedRows += uint64(winRows)
	s.metrics.Engine = s.metrics.Engine.Add(stats)
	os := s.ownerStatsLocked(ownerID)
	os.ReEncryptItems += uint64(end - start)
	os.ReEncryptedCiphertexts += uint64(winCts)
	os.ReEncryptedRows += uint64(winRows)
	os.Engine = os.Engine.Add(stats)
	return nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
