package cloud

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
)

// freshComponent renders a stored component's HTTP/JSON form without the
// server's pooled encoders.
func freshComponent(c StoredComponent) HTTPComponent {
	return HTTPComponent{
		Label:  c.Label,
		CT:     base64.StdEncoding.EncodeToString(c.CT.Marshal()),
		Sealed: base64.StdEncoding.EncodeToString(c.Sealed),
	}
}

// freshJSON is the body json.Encoder writes for v.
func freshJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storedRecord returns the record the store holds now.
func storedRecord(t *testing.T, s *Server, recordID string) *Record {
	t.Helper()
	rec, ok := s.store.Get(recordID)
	if !ok {
		t.Fatalf("record %s is not stored", recordID)
	}
	return rec
}

// renderStored renders the record the store holds now as its HTTP body,
// independently of the served path: the ground truth a fetch must match.
func renderStored(t *testing.T, s *Server, recordID string) []byte {
	t.Helper()
	rec := storedRecord(t, s, recordID)
	in := HTTPRecord{ID: rec.ID, OwnerID: rec.OwnerID}
	for _, c := range rec.Components {
		in.Components = append(in.Components, freshComponent(c))
	}
	return freshJSON(t, in)
}

// wireEqual reports whether a served wire reply carries the stored
// components: labels, ciphertext encodings and sealed payloads.
func wireEqual(served []RPCComponent, stored []StoredComponent) bool {
	if len(served) != len(stored) {
		return false
	}
	for i := range served {
		if served[i].Label != stored[i].Label ||
			!bytes.Equal(served[i].CT, stored[i].CT.Marshal()) ||
			!bytes.Equal(served[i].Sealed, stored[i].Sealed) {
			return false
		}
	}
	return true
}

// getBody serves GET path through handler and returns the 200 body.
func getBody(t *testing.T, handler http.Handler, path string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// servedDigest fetches every representation of patient-7 (the HTTP record
// body, each component's HTTP body, and the wire record and component
// replies) and hashes what was served, owner IDs included.
func servedDigest(t *testing.T, env *Env, labels []string) string {
	t.Helper()
	handler := NewHTTPHandler(env.Sys, env.Server)
	h := sha256.New()
	get := func(path string) { h.Write(getBody(t, handler, path)) }
	wire := func(label string) {
		ownerID, comps, err := env.Server.FetchWire("patient-7", label, "alice")
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(ownerID))
		h.Write(wireBytes(comps))
	}
	get("/records/patient-7?user=alice")
	wire("")
	for _, label := range labels {
		get("/records/patient-7/" + label + "?user=alice")
		wire(label)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// patientDigest is servedDigest of the record TestFetchMatchesFreshRender
// uploads from its seeded reader, as the read path has always served it.
const patientDigest = "3d6615d62132cbc37ae014c1d758274c4b9b2935523e7dbace97dfb62d135395"

// TestFetchMatchesFreshRender pins the bytes every download serves: each
// HTTP body and wire reply of a record equals a render of the record the
// store holds, made here without the server's pooled encoders, on every
// fetch. The record comes from a seeded reader, so the digest of all its
// replies is also pinned: a change to any served byte fails it. Under
// MAACS_STORE=file the same test covers the file backend.
func TestFetchMatchesFreshRender(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), mrand.New(mrand.NewSource(2012)))
	// hospitalEnv's authorities, added in a fixed order: each draws from
	// the seeded reader.
	if _, err := env.AddAuthority("med", []string{"doctor", "nurse"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddAuthority("trial", []string{"researcher", "admin"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	uploadPatientRecord(t, owner)
	handler := NewHTTPHandler(env.Sys, env.Server)
	get := func(path string) []byte { return getBody(t, handler, path) }

	rec := storedRecord(t, env.Server, "patient-7")
	var labels []string
	for pass := 0; pass < 2; pass++ {
		if got, want := get("/records/patient-7?user=alice"), renderStored(t, env.Server, "patient-7"); !bytes.Equal(got, want) {
			t.Errorf("pass %d: record body differs from a fresh render:\nserved: %s\nfresh:  %s", pass, got, want)
		}
		ownerID, comps, err := env.Server.FetchWire("patient-7", "", "alice")
		if err != nil || ownerID != rec.OwnerID || !wireEqual(comps, rec.Components) {
			t.Errorf("pass %d: record wire reply (owner %q, err %v) differs from the stored record", pass, ownerID, err)
		}
		for i, c := range rec.Components {
			if pass == 0 {
				labels = append(labels, c.Label)
			}
			if got, want := get("/records/patient-7/"+c.Label+"?user=alice"), freshJSON(t, freshComponent(c)); !bytes.Equal(got, want) {
				t.Errorf("pass %d: component %s body differs from a fresh render:\nserved: %s\nfresh:  %s", pass, c.Label, got, want)
			}
			ownerID, comps, err := env.Server.FetchWire("patient-7", c.Label, "alice")
			if err != nil || ownerID != rec.OwnerID || !wireEqual(comps, rec.Components[i:i+1]) {
				t.Errorf("pass %d: component %s wire reply (owner %q, err %v) differs from the stored component", pass, c.Label, ownerID, err)
			}
		}
	}
	if got := servedDigest(t, env, labels); got != patientDigest {
		t.Errorf("served bytes changed: digest %s, want %s", got, patientDigest)
	}
}

// TestFetchFollowsMutations walks the mutation matrix (re-encrypt, delete,
// re-store) and checks that a fetch after each one returns serves the record
// the store holds then.
func TestFetchFollowsMutations(t *testing.T) {
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
		t.Fatal("fetch after re-encrypt served the pre-re-encryption body")
	}
	if fresh := renderStored(t, env.Server, "patient-7"); !bytes.Equal(after, fresh) {
		t.Fatal("post-re-encrypt fetch does not match a fresh render")
	}

	// Delete: every fetch reports the record missing.
	if _, err := env.Server.Delete("patient-7", owner.Owner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Server.FetchRecordJSON("patient-7", "alice"); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("fetch after delete: got %v, want ErrRecordNotFound", err)
	}
	if _, err := env.Server.FetchComponentJSON("patient-7", "name", "alice"); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("component fetch after delete: got %v, want ErrRecordNotFound", err)
	}

	// Re-store under the same ID: a new record, so neither earlier body.
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

// TestFetchRacingMutationsMatchesStore interleaves fetches with commits
// under -race: background readers fetch every representation of a hot
// record while the single mutator re-stores, re-encrypts and deletes it.
// Once each mutation returns, a fetch must match a fresh render of the
// stored record: no fetch after a mutation returns the old body.
func TestFetchRacingMutationsMatchesStore(t *testing.T) {
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
			t.Fatalf("record %s: fetch diverged from the stored record after a mutation", id)
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
