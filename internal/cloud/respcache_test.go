package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fetchWireSnapshot deep-copies a wire fetch result so later comparisons
// cannot alias the cache's shared payloads.
type fetchWireSnapshot struct {
	ownerID string
	comps   []RPCComponent
}

func snapshotWire(t *testing.T, s *Server, recordID, label string) fetchWireSnapshot {
	t.Helper()
	ownerID, comps, err := s.FetchWire(recordID, label, "alice")
	if err != nil {
		t.Fatal(err)
	}
	out := fetchWireSnapshot{ownerID: ownerID, comps: make([]RPCComponent, len(comps))}
	for i, c := range comps {
		out.comps[i] = RPCComponent{
			Label:  c.Label,
			CT:     append([]byte(nil), c.CT...),
			Sealed: append([]byte(nil), c.Sealed...),
		}
	}
	return out
}

// renderStored renders the record the store holds now as its HTTP body,
// bypassing the cache: the ground truth a cached fetch must match.
func renderStored(t *testing.T, s *Server, recordID string) []byte {
	t.Helper()
	rec, ok := s.store.Get(recordID)
	if !ok {
		t.Fatalf("record %s is not stored", recordID)
	}
	e, err := s.renderRecordJSON(rec)
	if err != nil {
		t.Fatalf("fresh render %s: %v", recordID, err)
	}
	return e.body
}

func wireEqual(a, b fetchWireSnapshot) bool {
	if a.ownerID != b.ownerID || len(a.comps) != len(b.comps) {
		return false
	}
	for i := range a.comps {
		if a.comps[i].Label != b.comps[i].Label ||
			!bytes.Equal(a.comps[i].CT, b.comps[i].CT) ||
			!bytes.Equal(a.comps[i].Sealed, b.comps[i].Sealed) {
			return false
		}
	}
	return true
}

// TestResponseCacheDifferentialBytes pins the cache's core contract: a
// cached response is byte-identical to an uncached render of the same state,
// across every representation and through the real HTTP handler. Under
// MAACS_STORE=file the same test covers the file backend.
func TestResponseCacheDifferentialBytes(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	handler := NewHTTPHandler(env.Sys, env.Server)

	get := func(path string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}

	paths := []string{
		"/records/patient-7?user=alice",
		"/records/patient-7/name?user=alice",
		"/records/patient-7/diagnosis?user=alice",
	}

	// Uncached: every request renders afresh.
	env.Server.SetResponseCacheBytes(0)
	uncachedHTTP := make([][]byte, len(paths))
	for i, p := range paths {
		uncachedHTTP[i] = get(p)
	}
	uncachedRec := snapshotWire(t, env.Server, "patient-7", "")
	uncachedComp := snapshotWire(t, env.Server, "patient-7", "name")

	// Cached: first request misses and installs, second hits.
	env.Server.SetResponseCacheBytes(DefaultResponseCacheBytes)
	for pass := 0; pass < 2; pass++ {
		for i, p := range paths {
			if got := get(p); !bytes.Equal(got, uncachedHTTP[i]) {
				t.Errorf("pass %d GET %s: cached body differs from uncached:\ncached:   %s\nuncached: %s",
					pass, p, got, uncachedHTTP[i])
			}
		}
		if got := snapshotWire(t, env.Server, "patient-7", ""); !wireEqual(got, uncachedRec) {
			t.Errorf("pass %d: cached record wire reply differs from uncached", pass)
		}
		if got := snapshotWire(t, env.Server, "patient-7", "name"); !wireEqual(got, uncachedComp) {
			t.Errorf("pass %d: cached component wire reply differs from uncached", pass)
		}
	}
	if st := env.Server.ResponseCacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses after the cached passes, got %+v", st)
	}
}

// TestResponseCacheInvalidation walks the mutation matrix — re-store,
// re-encrypt, delete — and checks each one invalidates the cached renderings.
func TestResponseCacheInvalidation(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)

	before, err := env.Server.FetchRecordJSON("patient-7", "alice")
	if err != nil {
		t.Fatal(err)
	}

	// Re-encrypt: same record ID, updated ciphertext versions.
	uk, uis := revocationInputs(t, env, owner)
	if _, err := env.Server.ReEncrypt(owner.Owner.ID(), []ReEncryptItem{{UK: uk, UIs: uis}}); err != nil {
		t.Fatal(err)
	}
	after, err := env.Server.FetchRecordJSON("patient-7", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("re-encrypt did not invalidate the cached record body")
	}
	if fresh := renderStored(t, env.Server, "patient-7"); !bytes.Equal(after, fresh) {
		t.Fatal("post-re-encrypt fetch does not match a fresh render")
	}

	// Delete: fetches must miss, cached entries must be gone.
	if _, err := env.Server.Delete("patient-7", owner.Owner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Server.FetchRecordJSON("patient-7", "alice"); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("fetch after delete: got %v, want ErrRecordNotFound", err)
	}
	if _, err := env.Server.FetchComponentJSON("patient-7", "name", "alice"); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("component fetch after delete: got %v, want ErrRecordNotFound", err)
	}

	// Re-store under the same ID: a new stored record, so the pre-delete
	// rendering stays unreachable.
	uploadPatientRecord(t, owner)
	restored, err := env.Server.FetchRecordJSON("patient-7", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(restored, before) || bytes.Equal(restored, after) {
		t.Fatal("fetch after delete+re-store served a previous incarnation")
	}
	if fresh := renderStored(t, env.Server, "patient-7"); !bytes.Equal(restored, fresh) {
		t.Fatal("post-re-store fetch does not match a fresh render")
	}
}

// TestResponseCacheStaleGenerationHammer interleaves fetches with commits
// under -race: background readers hammer every representation of a hot
// record while the single mutator re-stores, re-encrypts and deletes it.
// After each mutation returns, a fetch must match a fresh render — the cache
// may never serve bytes from before the mutation.
func TestResponseCacheStaleGenerationHammer(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	if _, err := owner.Upload("stable-1", []UploadComponent{
		{Label: "name", Data: []byte("Bill"), Policy: "med:doctor"},
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range []string{"patient-7", "stable-1"} {
					if _, err := env.Server.FetchRecordJSON(id, "alice"); err != nil && !errors.Is(err, ErrRecordNotFound) {
						t.Errorf("fetch %s: %v", id, err)
						return
					}
					if _, err := env.Server.FetchComponentJSON(id, "name", "alice"); err != nil &&
						!errors.Is(err, ErrRecordNotFound) && !errors.Is(err, ErrComponentNotFound) {
						t.Errorf("fetch component %s: %v", id, err)
						return
					}
					if _, _, err := env.Server.FetchWire(id, "", "alice"); err != nil && !errors.Is(err, ErrRecordNotFound) {
						t.Errorf("fetch wire %s: %v", id, err)
						return
					}
				}
			}
		}()
	}

	// checkFresh asserts a fetch issued after the mutation returned reflects
	// the current store state. The mutator is the only writer, so a fresh
	// render is the ground truth.
	checkFresh := func(id string) {
		t.Helper()
		got, err := env.Server.FetchRecordJSON(id, "alice")
		if err != nil {
			t.Fatalf("fetch %s after mutation: %v", id, err)
		}
		if !bytes.Equal(got, renderStored(t, env.Server, id)) {
			t.Fatalf("record %s: cached fetch diverged from the stored record after a mutation", id)
		}
	}

	for round := 0; round < 4; round++ {
		// Delete + re-store the hot record.
		if _, err := env.Server.Delete("patient-7", owner.Owner.ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Server.FetchRecordJSON("patient-7", "alice"); !errors.Is(err, ErrRecordNotFound) {
			t.Fatalf("round %d: fetch after delete served a deleted record (err=%v)", round, err)
		}
		uploadPatientRecord(t, owner)
		checkFresh("patient-7")

		// Re-encrypt the whole corpus (hits both records).
		uk, uis := revocationInputs(t, env, owner)
		if _, err := env.Server.ReEncrypt(owner.Owner.ID(), []ReEncryptItem{{UK: uk, UIs: uis}}); err != nil {
			t.Fatal(err)
		}
		checkFresh("patient-7")
		checkFresh("stable-1")
	}
	close(stop)
	wg.Wait()
}

// TestResponseCacheSingleFlight pins miss coalescing: N concurrent first
// fetches of one record perform exactly one render.
func TestResponseCacheSingleFlight(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)

	const fetchers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	bodies := make([][]byte, fetchers)
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body, err := env.Server.FetchRecordJSON("patient-7", "alice")
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()

	st := env.Server.ResponseCacheStats()
	if st.Misses != 1 {
		t.Errorf("%d concurrent first fetches rendered %d times, want 1 (stats %+v)", fetchers, st.Misses, st)
	}
	if st.Hits != fetchers-1 {
		t.Errorf("got %d hits, want %d", st.Hits, fetchers-1)
	}
	for i := 1; i < fetchers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("fetcher %d saw different bytes", i)
		}
	}
}

// TestResponseCacheEviction exercises the byte bound: a capacity that fits
// one rendering forces LRU eviction, and shrinking to zero drops everything
// and disables caching.
func TestResponseCacheEviction(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)

	if _, err := env.Server.FetchComponentJSON("patient-7", "name", "alice"); err != nil {
		t.Fatal(err)
	}
	one := env.Server.ResponseCacheStats()
	if one.Entries != 1 || one.Bytes <= 0 {
		t.Fatalf("after one fetch: %+v", one)
	}

	// Room for one entry (plus slack), not two.
	env.Server.SetResponseCacheBytes(one.Bytes + respEntryOverhead/2)
	if _, err := env.Server.FetchComponentJSON("patient-7", "diagnosis", "alice"); err != nil {
		t.Fatal(err)
	}
	st := env.Server.ResponseCacheStats()
	if st.Evictions == 0 {
		t.Errorf("expected an LRU eviction, got %+v", st)
	}
	if st.Entries != 1 {
		t.Errorf("got %d entries within a one-entry budget, want 1 (%+v)", st.Entries, st)
	}
	if st.Bytes > st.CapBytes {
		t.Errorf("occupancy %d exceeds capacity %d", st.Bytes, st.CapBytes)
	}

	// The evicted representation still serves correctly (it re-renders).
	if _, err := env.Server.FetchComponentJSON("patient-7", "name", "alice"); err != nil {
		t.Fatal(err)
	}

	env.Server.SetResponseCacheBytes(0)
	if st := env.Server.ResponseCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("capacity 0 should drop everything, got %+v", st)
	}
	// Disabled cache still serves, render-per-request.
	if _, err := env.Server.FetchComponentJSON("patient-7", "name", "alice"); err != nil {
		t.Fatal(err)
	}
	if st := env.Server.ResponseCacheStats(); st.Entries != 0 {
		t.Errorf("disabled cache installed an entry: %+v", st)
	}
}

// TestResponseCacheZeroAllocHit pins the tentpole claim: the steady-state
// hit path of every fetch representation performs zero heap allocations.
func TestResponseCacheZeroAllocHit(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)

	cases := []struct {
		name string
		call func() error
	}{
		{"record_json", func() error { _, err := env.Server.FetchRecordJSON("patient-7", "alice"); return err }},
		{"component_json", func() error { _, err := env.Server.FetchComponentJSON("patient-7", "name", "alice"); return err }},
		{"record_wire", func() error { _, _, err := env.Server.FetchWire("patient-7", "", "alice"); return err }},
		{"component_wire", func() error { _, _, err := env.Server.FetchWire("patient-7", "name", "alice"); return err }},
	}
	for _, tc := range cases {
		// Warm: render + install, and create the per-user accounting row.
		for i := 0; i < 3; i++ {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per cached fetch, want 0", tc.name, allocs)
		}
	}
}

// TestWriteJSONEncodeFailure pins the writeJSON fix: a value the JSON
// encoder rejects must produce a 500 with an error body, not a 200 with a
// truncated one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]any{"bad": make(chan int)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "encode response") {
		t.Fatalf("body %q does not mention the encode failure", w.Body.String())
	}
}

// TestResponseCacheStatsInMetrics checks the cache counters surface in the
// /metrics JSON body and the Prometheus exposition.
func TestResponseCacheStatsInMetrics(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	for i := 0; i < 2; i++ {
		if _, err := env.Server.FetchRecordJSON("patient-7", "alice"); err != nil {
			t.Fatal(err)
		}
	}
	handler := NewHTTPHandler(env.Sys, env.Server)

	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics JSON: status %d", w.Code)
	}
	for _, want := range []string{`"response_cache"`, `"hits":`, `"cap_bytes":`} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("metrics JSON missing %s", want)
		}
	}

	w = httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics text: status %d", w.Code)
	}
	for _, want := range []string{
		"maacs_response_cache_hits_total 1",
		"maacs_response_cache_misses_total 1",
		"maacs_response_cache_bytes ",
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestResponseCacheKeepsNothingAfterDelete stores, fetches in every
// representation and deletes 1,000 records, then finds no cache state keyed
// by their IDs: the cache's memory follows the live records, not every ID
// ever stored.
func TestResponseCacheKeepsNothingAfterDelete(t *testing.T) {
	env, owner := hospitalEnv(t)
	proto := uploadPatientRecord(t, owner)
	if _, err := env.Server.Delete(proto.ID, proto.OwnerID); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("churn-%04d", i)
		if err := env.Server.Store(&Record{ID: id, OwnerID: proto.OwnerID, Components: proto.Components}); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Server.FetchRecordJSON(id, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Server.FetchComponentJSON(id, "name", "alice"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := env.Server.FetchWire(id, "", "alice"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := env.Server.FetchWire(id, "name", "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := env.Server.Delete(id, proto.OwnerID); err != nil {
			t.Fatal(err)
		}
	}
	c := env.Server.resp
	if st := c.Stats(); st.Misses != 4*n || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after %d store/fetch/delete cycles: %+v, want %d misses and nothing cached", n, st, 4*n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 || c.lru.Len() != 0 || len(c.byID) != 0 || len(c.flights) != 0 {
		t.Fatalf("cache state left for deleted records: %d entries, %d LRU, %d IDs, %d flights",
			len(c.entries), c.lru.Len(), len(c.byID), len(c.flights))
	}
}
