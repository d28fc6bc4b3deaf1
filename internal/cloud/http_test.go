package cloud

import (
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"maacs/internal/core"
	"maacs/internal/hybrid"
	"maacs/internal/pairing"
)

// httpFixture stands up the gateway over a fresh environment.
func httpFixture(t *testing.T) (*Env, *httptest.Server) {
	t.Helper()
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	ts := httptest.NewServer(NewHTTPHandler(env.Sys, env.Server))
	t.Cleanup(ts.Close)
	return env, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// httpCall sends one gateway request and reports a non-2xx status as an
// error. It never fails t, so goroutines can call it.
func httpCall(method, url string, body any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// httpHospitalFixture serves the gateway over the full hospital scenario so
// revocation flows can be driven end-to-end over HTTP.
func httpHospitalFixture(t *testing.T) (*Env, *OwnerClient, *httptest.Server) {
	t.Helper()
	env, owner := hospitalEnv(t)
	ts := httptest.NewServer(NewHTTPHandler(env.Sys, env.Server))
	t.Cleanup(ts.Close)
	return env, owner, ts
}

func encodeReEncryptRequest(uk *core.UpdateKey, uis []*core.UpdateInfo) HTTPReEncryptRequest {
	req := HTTPReEncryptRequest{UpdateKey: base64.StdEncoding.EncodeToString(uk.Marshal())}
	for _, ui := range uis {
		req.UpdateInfos = append(req.UpdateInfos, base64.StdEncoding.EncodeToString(ui.Marshal()))
	}
	return req
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := httpFixture(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var health HTTPHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("status %q, want ok", health.Status)
	}
}

// TestHTTPHealthzDegradedOnCompactionFailure: a sick background compactor
// flips /healthz to "degraded" and names the failure — without ever failing
// a mutation (writes stay durable through the WAL).
func TestHTTPHealthzDegradedOnCompactionFailure(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	fs := mustOpenFileStore(t, sys, t.TempDir())
	fs.compactHook = func(string) error { return fmt.Errorf("injected compaction fault") }
	server := NewServerWithStore(sys, NewAccounting(), fs)
	t.Cleanup(func() { server.Close() })
	ts := httptest.NewServer(NewHTTPHandler(sys, server))
	t.Cleanup(ts.Close)

	if err := fs.Put(recs[0].snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Compact(); err == nil {
		t.Fatal("compaction ignored the injected fault")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HTTPHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("status %q, want degraded", health.Status)
	}
	if !strings.Contains(health.Store.CompactErr, "injected compaction fault") {
		t.Fatalf("compact_err %q does not carry the failure", health.Store.CompactErr)
	}
}

func TestHTTPStoreFetchDecrypt(t *testing.T) {
	env, ts := httpFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	alice := addUser(t, env, "alice", map[string][]string{"med": {"doctor"}})

	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("via http"), Policy: "med:doctor"},
	})
	resp := postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("store status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Duplicate upload → conflict.
	resp = postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate store status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Fetch the component and decrypt client-side.
	getResp, err := http.Get(ts.URL + "/records/r1/x")
	if err != nil {
		t.Fatal(err)
	}
	comp := decodeJSON[HTTPComponent](t, getResp)
	ctRaw, err := base64.StdEncoding.DecodeString(comp.CT)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := core.UnmarshalCiphertext(env.Sys.Params, ctRaw)
	if err != nil {
		t.Fatal(err)
	}
	el, err := core.Decrypt(env.Sys, ct, alice.PK, alice.keysFor("hospital"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := base64.StdEncoding.DecodeString(comp.Sealed)
	if err != nil {
		t.Fatal(err)
	}
	key := &hybrid.ContentKey{Element: el}
	data, err := key.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("via http")) {
		t.Fatalf("got %q", data)
	}

	// Whole-record fetch.
	getResp, err = http.Get(ts.URL + "/records/r1")
	if err != nil {
		t.Fatal(err)
	}
	full := decodeJSON[HTTPRecord](t, getResp)
	if full.OwnerID != "hospital" || len(full.Components) != 1 {
		t.Fatalf("record: %+v", full)
	}
}

func TestHTTPNotFoundAndBadInput(t *testing.T) {
	_, ts := httpFixture(t)
	resp, err := http.Get(ts.URL + "/records/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	r2, err := http.Post(ts.URL+"/records", "application/json", strings.NewReader("{bad json"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", r2.StatusCode)
	}
	r2.Body.Close()

	r3 := postJSON(t, ts.URL+"/records", HTTPRecord{ID: "x", OwnerID: "o",
		Components: []HTTPComponent{{Label: "a", CT: "!!!not-base64", Sealed: ""}}})
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", r3.StatusCode)
	}
	r3.Body.Close()
}

func TestHTTPRevocationFlow(t *testing.T) {
	env, ts := httpFixture(t)
	med, err := env.AddAuthority("med", []string{"doctor"})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	bob := addUser(t, env, "bob", map[string][]string{"med": {"doctor"}})

	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("s"), Policy: "med:doctor"},
	})
	resp := postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
	resp.Body.Close()

	// Rekey + update info, then submit over HTTP.
	fromV, _, err := med.AA.Rekey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := med.AA.UpdateKeyFor(owner.Owner.SecretKeyForAAs(), fromV)
	if err != nil {
		t.Fatal(err)
	}
	// List ciphertexts over HTTP.
	listResp, err := http.Get(ts.URL + "/owners/hospital/ciphertexts")
	if err != nil {
		t.Fatal(err)
	}
	listed := decodeJSON[map[string][]string](t, listResp)
	if len(listed["ciphertexts"]) != 1 {
		t.Fatalf("listed %d ciphertexts", len(listed["ciphertexts"]))
	}
	ctRaw, err := base64.StdEncoding.DecodeString(listed["ciphertexts"][0])
	if err != nil {
		t.Fatal(err)
	}
	ct, err := core.UnmarshalCiphertext(env.Sys.Params, ctRaw)
	if err != nil {
		t.Fatal(err)
	}
	uis, err := owner.Owner.RevocationUpdate(uk, []*core.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	req := HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{encodeReEncryptRequest(uk, uis)}}
	reResp := postJSON(t, ts.URL+"/owners/hospital/reencrypt/batch", req)
	out := decodeJSON[HTTPBatchReEncryptResponse](t, reResp)
	if out.Ciphertexts != 1 || out.Rows != 1 {
		t.Fatalf("re-encrypted %+v", out)
	}

	// Replaying the same re-encryption → version conflict.
	reResp = postJSON(t, ts.URL+"/owners/hospital/reencrypt/batch", req)
	if reResp.StatusCode != http.StatusConflict {
		t.Fatalf("replay status %d, want 409", reResp.StatusCode)
	}
	reResp.Body.Close()

	// Bob updates and reads the re-encrypted component over HTTP.
	newKey, err := core.UpdateSecretKey(bob.keysFor("hospital")["med"], uk)
	if err != nil {
		t.Fatal(err)
	}
	bob.installKey(newKey)
	getResp, err := http.Get(ts.URL + "/records/r1/x")
	if err != nil {
		t.Fatal(err)
	}
	comp := decodeJSON[HTTPComponent](t, getResp)
	raw, _ := base64.StdEncoding.DecodeString(comp.CT)
	reenc, err := core.UnmarshalCiphertext(env.Sys.Params, raw)
	if err != nil {
		t.Fatal(err)
	}
	el, err := core.Decrypt(env.Sys, reenc, bob.PK, bob.keysFor("hospital"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := base64.StdEncoding.DecodeString(comp.Sealed)
	key := &hybrid.ContentKey{Element: el}
	if data, err := key.Open(sealed); err != nil || !bytes.Equal(data, []byte("s")) {
		t.Fatalf("post-revocation read failed: %v", err)
	}
}

func TestHTTPBatchReEncryptAndMetrics(t *testing.T) {
	env, owner, ts := httpHospitalFixture(t)
	uploadPatientRecord(t, owner)
	if _, err := owner.Upload("patient-8", []UploadComponent{
		{Label: "name", Data: []byte("Bill"), Policy: "med:doctor"},
		{Label: "notes", Data: []byte("obs"), Policy: "med:nurse"},
	}); err != nil {
		t.Fatal(err)
	}

	uk, uis := revocationInputs(t, env, owner)
	if len(uis) != 5 {
		t.Fatalf("expected update info for all 5 ciphertexts, got %d", len(uis))
	}

	// Split the revocation into two disjoint update-info sets and submit them
	// as one batch.
	var a, b []*core.UpdateInfo
	i := 0
	for _, ui := range uis {
		if i%2 == 0 {
			a = append(a, ui)
		} else {
			b = append(b, ui)
		}
		i++
	}
	req := HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{
		encodeReEncryptRequest(uk, a),
		encodeReEncryptRequest(uk, b),
	}}
	resp := postJSON(t, ts.URL+"/owners/hospital/reencrypt/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	out := decodeJSON[HTTPBatchReEncryptResponse](t, resp)
	if out.Ciphertexts != len(uis) {
		t.Fatalf("batch re-encrypted %d ciphertexts, want %d", out.Ciphertexts, len(uis))
	}
	if len(out.Items) != 2 || out.Items[0].Ciphertexts+out.Items[1].Ciphertexts != out.Ciphertexts {
		t.Fatalf("per-item breakdown inconsistent: %+v", out)
	}
	if out.Engine.Jobs == 0 {
		t.Fatalf("batch response carries no engine activity: %+v", out.Engine)
	}
	if out.Engine.WallNs <= 0 {
		t.Fatalf("batch response has no wall time: %+v", out.Engine)
	}

	// The cumulative metrics agree with the one request served so far.
	mResp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mResp.StatusCode)
	}
	m := decodeJSON[HTTPMetrics](t, mResp)
	if m.Records != 2 || m.StoreRequests != 2 {
		t.Fatalf("metrics records/stores = %d/%d, want 2/2", m.Records, m.StoreRequests)
	}
	if m.ReEncryptRequests != 1 || m.ReEncryptItems != 2 {
		t.Fatalf("metrics requests/items = %d/%d, want 1/2", m.ReEncryptRequests, m.ReEncryptItems)
	}
	if m.ReEncryptedCiphertexts != uint64(out.Ciphertexts) || m.ReEncryptedRows != uint64(out.Rows) {
		t.Fatalf("metrics totals %d/%d, response %d/%d",
			m.ReEncryptedCiphertexts, m.ReEncryptedRows, out.Ciphertexts, out.Rows)
	}
	if m.Engine.Jobs != out.Engine.Jobs {
		t.Fatalf("cumulative engine jobs %d, per-request %d", m.Engine.Jobs, out.Engine.Jobs)
	}
	if m.Channels[ChanServerOwner].Bytes == 0 || m.Channels[ChanServerOwner].Messages == 0 {
		t.Fatalf("metrics missing channel tallies: %+v", m.Channels)
	}

	// The batch committed both records and the per-owner breakdown attributes
	// all of the work to the one owner.
	if want := []string{"patient-7", "patient-8"}; !slices.Equal(out.Committed, want) {
		t.Fatalf("committed %v, want %v", out.Committed, want)
	}
	own, ok := m.Owners["hospital"]
	if !ok {
		t.Fatalf("metrics missing owner row: %+v", m.Owners)
	}
	if own.Records != 2 || own.StoreRequests != 2 || own.ReEncryptRequests != 1 {
		t.Fatalf("owner stats %+v", own)
	}
	if own.ReEncryptedCiphertexts != uint64(out.Ciphertexts) || own.ReEncryptedRows != uint64(out.Rows) {
		t.Fatalf("owner work %d/%d, response %d/%d",
			own.ReEncryptedCiphertexts, own.ReEncryptedRows, out.Ciphertexts, out.Rows)
	}

	// The default exposition is Prometheus text carrying the same counters.
	pResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := pResp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(pResp.Body)
	pResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"maacs_records 2\n",
		"maacs_reencrypt_requests_total 1\n",
		fmt.Sprintf("maacs_reencrypted_ciphertexts_total %d\n", out.Ciphertexts),
		`maacs_owner_records{owner="hospital"} 2` + "\n",
		fmt.Sprintf(`maacs_owner_reencrypted_rows_total{owner="hospital"} %d`+"\n", out.Rows),
		`maacs_channel_bytes_total{channel="Server↔Owner"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestHTTPBatchReEncryptErrors(t *testing.T) {
	env, owner, ts := httpHospitalFixture(t)
	uploadPatientRecord(t, owner)
	uk, uis := revocationInputs(t, env, owner)
	var all []*core.UpdateInfo
	for _, ui := range uis {
		all = append(all, ui)
	}
	good := encodeReEncryptRequest(uk, all)
	batchURL := ts.URL + "/owners/hospital/reencrypt/batch"

	expect := func(status int, body any, url string) {
		t.Helper()
		resp := postJSON(t, url, body)
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		resp.Body.Close()
	}

	// An empty batch is malformed.
	expect(http.StatusBadRequest, HTTPBatchReEncryptRequest{}, batchURL)

	// The same ciphertext listed twice inside one item.
	dup := good
	dup.UpdateInfos = append(append([]string(nil), good.UpdateInfos...), good.UpdateInfos[0])
	expect(http.StatusBadRequest,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{dup}}, batchURL)

	// The same ciphertext claimed by two items of the batch.
	expect(http.StatusBadRequest,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{good, good}}, batchURL)

	// Broken base64 in an item's update info and update key.
	badUI := good
	badUI.UpdateInfos = []string{"!!!not-base64"}
	expect(http.StatusBadRequest,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{badUI}}, batchURL)
	badUK := good
	badUK.UpdateKey = "%%%"
	expect(http.StatusBadRequest,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{badUK}}, batchURL)

	// An owner with no stored records.
	expect(http.StatusNotFound,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{good}},
		ts.URL+"/owners/ghost/reencrypt/batch")

	// None of the rejected requests re-encrypted (or metered) anything.
	mResp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if m := decodeJSON[HTTPMetrics](t, mResp); m.ReEncryptRequests != 0 {
		t.Fatalf("rejected requests counted: %+v", m.Metrics)
	}

	// The well-formed batch goes through; replaying it hits the version check.
	expect(http.StatusOK,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{good}}, batchURL)
	expect(http.StatusConflict,
		HTTPBatchReEncryptRequest{Items: []HTTPReEncryptRequest{good}}, batchURL)
}

func TestHTTPBodyTooLarge(t *testing.T) {
	_, _, ts := httpHospitalFixture(t)
	// An unterminated JSON string forces the decoder to read past the cap.
	huge := append([]byte(`{"items": "`), bytes.Repeat([]byte("a"), maxHTTPBody+16)...)
	resp, err := http.Post(ts.URL+"/owners/hospital/reencrypt/batch",
		"application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
