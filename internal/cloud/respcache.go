package cloud

import (
	"container/list"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maacs/internal/core"
	"maacs/internal/wire"
)

// Encoded-response cache: the zero-serialization read path.
//
// The workload is read-dominated — records are written once, re-encrypted
// rarely, and fetched constantly — and stored records are immutable between
// commits (ReplaceIfUnchanged swaps whole ciphertext pointers). So instead of
// re-serializing the record on every download, the server renders each
// response representation once (the HTTP/JSON body, the net/rpc component
// set) and serves the cached immutable bytes until a mutation invalidates
// them. Every download takes this path: both transports and in-process
// UserClients.
//
// Correctness rests on the identity of the stored record. A stored *Record
// is never written after it is stored: every mutation installs a new pointer
// (Put, the copy-on-write clones of ReplaceIfUnchanged). So:
//
//   - A fetch reads the record from the store FIRST; a missing record is
//     ErrRecordNotFound before the cache is consulted.
//   - Each entry keeps the *Record it was rendered from, and is served only
//     to a fetch whose store read returned that same pointer.
//   - An entry keeps its record reachable, so no later record can reuse the
//     address while the entry exists: a matching pointer is the very
//     snapshot the bytes were rendered from.
//
// A fetch that overlaps a mutation may serve either body; that is a legal
// linearization, not staleness: the mutation has not returned yet. Every
// mutation path calls Bump after its commit, which drops the record's
// entries at once instead of leaving them to LRU eviction. The cache keeps
// no other state per record ID, so a deleted record leaves nothing behind.
//
// The cache is byte-bounded with LRU eviction, and misses are single-flight:
// N concurrent first fetches of a record perform one render.

// DefaultResponseCacheBytes is the cache capacity NewServerWithStore installs;
// maacs-server overrides it via -response-cache-bytes (0 disables caching).
const DefaultResponseCacheBytes int64 = 64 << 20

// respEntryOverhead approximates the per-entry bookkeeping footprint (map
// cells, LRU element, entry struct) charged against the byte budget on top of
// the payload bytes.
const respEntryOverhead = 256

// Response kinds — one cache slot per representation of a record or
// component.
const (
	kindRecordJSON uint8 = iota
	kindComponentJSON
	kindRecordWire
	kindComponentWire
)

// respKey addresses one cached representation. Struct keys keep the hit-path
// map lookup allocation-free.
type respKey struct {
	kind  uint8
	id    string
	label string // component kinds only
}

// respEntry is one rendered response. All fields except elem are immutable
// after install; callers share the payload and must never write into it.
type respEntry struct {
	rec  *Record // the stored record this was rendered from
	size int     // metered payload size: CT.Size plus sealed bytes

	body    []byte         // JSON kinds: full HTTP body including trailing newline
	comps   []RPCComponent // wire kinds: marshaled components, shared across replies
	ownerID string         // wire kinds: RPCFetchReply.OwnerID

	bytes int64         // footprint charged against the capacity
	elem  *list.Element // LRU position; guarded by the cache mutex
}

// respFlight coordinates single-flight rendering of one key.
type respFlight struct {
	done chan struct{}
}

// ResponseCacheStats is the cache's observability row, exposed in the
// /metrics JSON body and as maacs_response_cache_* Prometheus families.
type ResponseCacheStats struct {
	// Hits counts fetches served from a cached rendering; Misses counts
	// renders performed (single-flight: N concurrent first fetches are one
	// miss, the waiters count as hits once the leader installs).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU byte bound (invalidations
	// and re-renders do not count).
	Evictions uint64 `json:"evictions"`
	// Bytes and Entries describe current occupancy; CapBytes is the
	// configured bound (0 = caching disabled).
	Bytes    int64 `json:"bytes"`
	Entries  int   `json:"entries"`
	CapBytes int64 `json:"cap_bytes"`
}

// ResponseCache holds rendered fetch responses keyed by (kind, record,
// label), bounded by bytes with LRU eviction. The zero value is unusable;
// construct with NewResponseCache.
type ResponseCache struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	mu      sync.Mutex
	cap     int64
	bytes   int64
	entries map[respKey]*respEntry
	lru     *list.List // of respKey, front = most recent
	byID    map[string]map[respKey]struct{}
	flights map[respKey]*respFlight
}

// NewResponseCache builds a cache bounded at capBytes (<= 0 disables
// caching: every fetch renders).
func NewResponseCache(capBytes int64) *ResponseCache {
	c := &ResponseCache{
		entries: make(map[respKey]*respEntry),
		lru:     list.New(),
		byID:    make(map[string]map[respKey]struct{}),
		flights: make(map[respKey]*respFlight),
	}
	c.SetCapacity(capBytes)
	return c
}

// SetCapacity rebounds the cache. Shrinking evicts from the LRU tail;
// n <= 0 disables caching and drops every entry.
func (c *ResponseCache) SetCapacity(n int64) {
	if n < 0 {
		n = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	for c.bytes > c.cap {
		c.evictOldestLocked()
	}
}

// Stats snapshots the counters and occupancy.
func (c *ResponseCache) Stats() ResponseCacheStats {
	c.mu.Lock()
	bytes, entries, capBytes := c.bytes, len(c.entries), c.cap
	c.mu.Unlock()
	return ResponseCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     bytes,
		Entries:   entries,
		CapBytes:  capBytes,
	}
}

// Bump drops the record's cached responses. Every mutation path calls it
// after the store commit succeeds and before returning. Lookups already
// refuse those entries, since the store holds a new record or none; Bump
// frees their memory.
func (c *ResponseCache) Bump(id string) {
	c.mu.Lock()
	for key := range c.byID[id] {
		c.removeLocked(key, c.entries[key])
	}
	c.mu.Unlock()
}

// lookup serves a cached entry rendered from rec, the record the store holds
// now, refreshing its LRU position. The hit path performs no allocation.
func (c *ResponseCache) lookup(key respKey, rec *Record) (*respEntry, bool) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.rec != rec {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// fill renders the entry for key from rec, coalescing concurrent misses into
// one render, and installs it tagged with rec.
func (c *ResponseCache) fill(key respKey, rec *Record, render func(*Record) (*respEntry, error)) (*respEntry, error) {
	for {
		c.mu.Lock()
		if c.cap <= 0 {
			// Caching disabled: render without installing or counting.
			c.mu.Unlock()
			return render(rec)
		}
		if e := c.entries[key]; e != nil && e.rec == rec {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.hits.Add(1)
			return e, nil
		}
		if fl := c.flights[key]; fl != nil {
			// Another fetch is rendering this key; wait for it and re-check.
			c.mu.Unlock()
			<-fl.done
			continue
		}
		fl := &respFlight{done: make(chan struct{})}
		c.flights[key] = fl
		c.mu.Unlock()

		e, err := render(rec)
		c.mu.Lock()
		delete(c.flights, key)
		close(fl.done)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		e.rec = rec
		c.misses.Add(1)
		c.installLocked(key, e)
		c.mu.Unlock()
		return e, nil
	}
}

// installLocked inserts a rendered entry, replacing any other rendering of
// the same key and evicting from the LRU tail past the byte bound. Entries
// larger than the whole capacity are served but not cached. Renders of one
// key never overlap (fill is single-flight), so the entry replaced is one
// that a fetch found stale before this render began.
func (c *ResponseCache) installLocked(key respKey, e *respEntry) {
	if e.bytes > c.cap {
		return
	}
	if old := c.entries[key]; old != nil {
		c.removeLocked(key, old)
	}
	e.elem = c.lru.PushFront(key)
	c.entries[key] = e
	set := c.byID[key.id]
	if set == nil {
		set = make(map[respKey]struct{}, 4)
		c.byID[key.id] = set
	}
	set[key] = struct{}{}
	c.bytes += e.bytes
	for c.bytes > c.cap {
		c.evictOldestLocked()
	}
}

// evictOldestLocked drops the LRU tail entry and counts the eviction.
func (c *ResponseCache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	key := back.Value.(respKey)
	c.removeLocked(key, c.entries[key])
	c.evictions.Add(1)
}

// removeLocked unlinks an entry from the map, the LRU list and the per-record
// index.
func (c *ResponseCache) removeLocked(key respKey, e *respEntry) {
	if e == nil {
		return
	}
	delete(c.entries, key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	if set := c.byID[key.id]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(c.byID, key.id)
		}
	}
}

// ---- pooled encode scratch -------------------------------------------------

// encoderPool recycles wire encoders so the cache-miss render path (and the
// other serialization sites on the gateway) stop allocating a fresh buffer
// per ciphertext.
var encoderPool = sync.Pool{New: func() any { return new(wire.Encoder) }}

// b64Pool recycles base64 destination scratch; the encoded string itself is
// the only allocation left.
var b64Pool = sync.Pool{New: func() any { return new([]byte) }}

// b64String base64-encodes raw through pooled scratch.
func b64String(raw []byte) string {
	n := base64.StdEncoding.EncodedLen(len(raw))
	bp := b64Pool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	base64.StdEncoding.Encode(buf, raw)
	s := string(buf)
	b64Pool.Put(bp)
	return s
}

// b64Ciphertext renders a ciphertext's wire encoding as base64 without an
// intermediate allocation of the raw encoding.
func b64Ciphertext(ct *core.Ciphertext) string {
	e := encoderPool.Get().(*wire.Encoder)
	e.Reset()
	ct.MarshalTo(e)
	s := b64String(e.Bytes())
	encoderPool.Put(e)
	return s
}

// marshalCiphertext is ct.Marshal through the encoder pool: only the returned
// copy allocates.
func marshalCiphertext(ct *core.Ciphertext) []byte {
	e := encoderPool.Get().(*wire.Encoder)
	e.Reset()
	ct.MarshalTo(e)
	out := append([]byte(nil), e.Bytes()...)
	encoderPool.Put(e)
	return out
}

// ---- Server integration ----------------------------------------------------

// SetResponseCacheBytes rebounds the server's encoded-response cache
// (0 disables caching and drops every cached rendering).
func (s *Server) SetResponseCacheBytes(n int64) { s.resp.SetCapacity(n) }

// ResponseCacheStats snapshots the encoded-response cache counters.
func (s *Server) ResponseCacheStats() ResponseCacheStats { return s.resp.Stats() }

// cachedResponse serves key's rendering of the record the store holds now,
// rendering it on a miss; a missing record is ErrRecordNotFound.
func (s *Server) cachedResponse(key respKey, render func(*Record) (*respEntry, error)) (*respEntry, error) {
	rec, ok := s.store.Get(key.id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrRecordNotFound, key.id)
	}
	if e, ok := s.resp.lookup(key, rec); ok {
		return e, nil
	}
	return s.resp.fill(key, rec, render)
}

// download is every fetch: it serves the cached response and, on success,
// meters its size on the Server↔User channel and counts it in the cumulative
// counters and userID's row (empty = unattributed). Its latency lands in the
// fetch or fetch_component histogram, failures included.
func (s *Server) download(key respKey, userID string, render func(*Record) (*respEntry, error)) (*respEntry, error) {
	component, op := key.label != "", opFetch
	if component {
		op = opFetchComponent
	}
	defer s.observe(op, time.Now())
	e, err := s.cachedResponse(key, render)
	if err != nil {
		return nil, err
	}
	s.acct.Add(ChanServerUser, e.size)
	s.noteDownload(userID, e.size, component)
	return e, nil
}

// FetchRecordJSON serves a whole record as its canonical HTTP/JSON body
// (trailing newline included). The returned bytes are shared and immutable:
// a cache hit performs zero copies, zero marshals and zero heap allocations.
func (s *Server) FetchRecordJSON(recordID, userID string) ([]byte, error) {
	e, err := s.download(respKey{kind: kindRecordJSON, id: recordID}, userID, s.renderRecordJSON)
	if err != nil {
		return nil, err
	}
	return e.body, nil
}

// FetchComponentJSON serves one component as its canonical HTTP/JSON body.
// The bytes are shared and immutable.
func (s *Server) FetchComponentJSON(recordID, label, userID string) ([]byte, error) {
	e, err := s.download(respKey{kind: kindComponentJSON, id: recordID, label: label}, userID,
		func(rec *Record) (*respEntry, error) { return s.renderComponentJSON(rec, label) })
	if err != nil {
		return nil, err
	}
	return e.body, nil
}

// FetchWire serves a record (label == "") or one component (label != "") in
// the net/rpc reply shape: the owner ID and the marshaled components. It is
// the read path of RPC CloudServer.Fetch and of in-process UserClient
// downloads. The component slice and its payloads are shared and immutable —
// callers must not write into them; decodeComponents copies what it keeps.
func (s *Server) FetchWire(recordID, label, userID string) (string, []RPCComponent, error) {
	var e *respEntry
	var err error
	if label == "" {
		e, err = s.download(respKey{kind: kindRecordWire, id: recordID}, userID, s.renderRecordWire)
	} else {
		e, err = s.download(respKey{kind: kindComponentWire, id: recordID, label: label}, userID,
			func(rec *Record) (*respEntry, error) { return s.renderComponentWire(rec, label) })
	}
	if err != nil {
		return "", nil, err
	}
	return e.ownerID, e.comps, nil
}

// ---- renders (cache-miss path) ---------------------------------------------

// appendJSONBody marshals v into the exact bytes writeJSON produces
// (json.Marshal plus the trailing newline json.Encoder emits), so cached and
// uncached HTTP responses are byte-identical.
func appendJSONBody(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// renderRecordJSON builds the HTTP body for a whole record straight from the
// immutable stored record — render only reads, so no deep copy is taken.
func (s *Server) renderRecordJSON(rec *Record) (*respEntry, error) {
	body, err := appendJSONBody(toHTTPRecord(rec))
	if err != nil {
		return nil, err
	}
	size := 0
	for i := range rec.Components {
		size += rec.Components[i].CT.Size(s.sys.Params) + len(rec.Components[i].Sealed)
	}
	return &respEntry{size: size, body: body, bytes: int64(len(body)) + respEntryOverhead}, nil
}

// renderComponentJSON builds the HTTP body for one component.
func (s *Server) renderComponentJSON(rec *Record, label string) (*respEntry, error) {
	for i := range rec.Components {
		c := &rec.Components[i]
		if c.Label != label {
			continue
		}
		body, err := appendJSONBody(HTTPComponent{
			Label:  c.Label,
			CT:     b64Ciphertext(c.CT),
			Sealed: b64String(c.Sealed),
		})
		if err != nil {
			return nil, err
		}
		size := c.CT.Size(s.sys.Params) + len(c.Sealed)
		return &respEntry{size: size, body: body, bytes: int64(len(body)) + respEntryOverhead}, nil
	}
	return nil, fmt.Errorf("%w: %q/%q", ErrComponentNotFound, rec.ID, label)
}

// renderRecordWire builds the RPC reply components for a whole record. The
// sealed payloads are copied once so the cache owns its memory and no caller
// of the stored record and no holder of the reply can alias each other.
func (s *Server) renderRecordWire(rec *Record) (*respEntry, error) {
	comps := make([]RPCComponent, len(rec.Components))
	size := 0
	footprint := int64(respEntryOverhead)
	for i := range rec.Components {
		c := &rec.Components[i]
		comps[i] = RPCComponent{
			Label:  c.Label,
			CT:     marshalCiphertext(c.CT),
			Sealed: append([]byte(nil), c.Sealed...),
		}
		size += c.CT.Size(s.sys.Params) + len(c.Sealed)
		footprint += int64(len(comps[i].Label) + len(comps[i].CT) + len(comps[i].Sealed))
	}
	return &respEntry{size: size, comps: comps, ownerID: rec.OwnerID, bytes: footprint}, nil
}

// renderComponentWire builds the RPC reply for one component. OwnerID comes
// from the ciphertext, matching the historical component-fetch reply shape.
func (s *Server) renderComponentWire(rec *Record, label string) (*respEntry, error) {
	for i := range rec.Components {
		c := &rec.Components[i]
		if c.Label != label {
			continue
		}
		comps := []RPCComponent{{
			Label:  c.Label,
			CT:     marshalCiphertext(c.CT),
			Sealed: append([]byte(nil), c.Sealed...),
		}}
		size := c.CT.Size(s.sys.Params) + len(c.Sealed)
		footprint := int64(respEntryOverhead + len(comps[0].Label) + len(comps[0].CT) + len(comps[0].Sealed))
		return &respEntry{size: size, comps: comps, ownerID: c.CT.OwnerID, bytes: footprint}, nil
	}
	return nil, fmt.Errorf("%w: %q/%q", ErrComponentNotFound, rec.ID, label)
}
