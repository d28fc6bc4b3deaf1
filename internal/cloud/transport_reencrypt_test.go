package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/rpc"
	"slices"
	"strings"
	"testing"

	"maacs/internal/core"
)

// remoteFor serves srv over net/rpc on loopback and returns a connected
// client; both are closed when the test ends.
func remoteFor(t *testing.T, sys *core.System, srv *Server) *RemoteServer {
	t.Helper()
	listener, addr, err := ServeRPC(sys, srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := listener.Close(); err != nil {
			t.Errorf("close listener: %v", err)
		}
	})
	remote, err := DialServer(sys, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote
}

// httpReEncryptBody is the gateway's re-encryption request body for items.
func httpReEncryptBody(items []ReEncryptItem) HTTPBatchReEncryptRequest {
	req := HTTPBatchReEncryptRequest{Items: make([]HTTPReEncryptRequest, len(items))}
	for i, it := range items {
		uis := make([]*core.UpdateInfo, 0, len(it.UIs))
		for _, ui := range it.UIs {
			uis = append(uis, ui)
		}
		req.Items[i] = encodeReEncryptRequest(it.UK, uis)
	}
	return req
}

// httpReEncrypt posts items to the gateway's re-encryption route and returns
// the status and the raw body.
func httpReEncrypt(t *testing.T, baseURL, ownerID string, items []ReEncryptItem) (int, []byte) {
	t.Helper()
	resp := postJSON(t, baseURL+"/owners/"+ownerID+"/reencrypt/batch", httpReEncryptBody(items))
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestReEncryptTransportsAgree is the transport differential for
// re-encryption: one snapshot restored into three servers, the same
// per-ciphertext batch under window 2 sent in-process, over net/rpc and over
// HTTP, one server each. The stored state must come out byte-identical, the
// three reports must agree, and each run must prepare UK1 once.
func TestReEncryptTransportsAgree(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	ownerID := owner.Owner.ID()
	uk, uis := revocationInputs(t, env, owner)
	items := perCiphertextItems(uk, uis)

	seed, fresh := restorer(t, env)
	inProc, overRPC, overHTTP := fresh(), fresh(), fresh()
	for _, s := range []*Server{inProc, overRPC, overHTTP} {
		s.SetBatchWindow(2)
	}

	repIn, err := inProc.ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}
	repRPC, err := remoteFor(t, env.Sys, overRPC).ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(env.Sys, overHTTP))
	t.Cleanup(ts.Close)
	status, body := httpReEncrypt(t, ts.URL, ownerID, items)
	if status != http.StatusOK {
		t.Fatalf("http status %d: %s", status, body)
	}
	var repHTTP HTTPBatchReEncryptResponse
	if err := json.Unmarshal(body, &repHTTP); err != nil {
		t.Fatal(err)
	}

	if repIn.Windows != 3 || repIn.Ciphertexts != 5 {
		t.Fatalf("in-process run: %d windows, %d ciphertexts, want 3 and 5", repIn.Windows, repIn.Ciphertexts)
	}
	for name, rep := range map[string]*BatchReport{"rpc": repRPC, "http": &repHTTP} {
		if rep.Ciphertexts != repIn.Ciphertexts || rep.Rows != repIn.Rows ||
			rep.Windows != repIn.Windows || rep.NextItem != repIn.NextItem ||
			!slices.Equal(rep.Committed, repIn.Committed) ||
			!slices.Equal(rep.Items, repIn.Items) {
			t.Fatalf("%s report %+v differs from in-process %+v", name, rep, repIn)
		}
	}
	// Every item carries the same update key. The in-process items share
	// one *core.UpdateKey, and each transport decodes the key once per
	// request, so every run builds one UK1 preparation across its windows.
	for name, rep := range map[string]*BatchReport{"in-process": repIn, "rpc": repRPC, "http": &repHTTP} {
		if rep.Engine.PreparedMisses != 1 {
			t.Fatalf("%s run built %d UK1 preparations, want 1", name, rep.Engine.PreparedMisses)
		}
	}

	want := snapshotBytes(t, inProc)
	if bytes.Equal(want, seed) {
		t.Fatal("re-encryption did not change the stored ciphertexts")
	}
	if !bytes.Equal(snapshotBytes(t, overRPC), want) {
		t.Fatal("rpc re-encryption diverged from in-process")
	}
	if !bytes.Equal(snapshotBytes(t, overHTTP), want) {
		t.Fatal("http re-encryption diverged from in-process")
	}
}

// TestReEncryptEmptyBatchRejected: a request with no items is rejected with
// ErrEmptyBatch on every transport — HTTP 400, a plain RPC error — before
// anything is metered.
func TestReEncryptEmptyBatchRejected(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	ownerID := owner.Owner.ID()
	remote := remoteFor(t, env.Sys, env.Server)
	ts := httptest.NewServer(NewHTTPHandler(env.Sys, env.Server))
	t.Cleanup(ts.Close)

	m0 := env.Server.Metrics()
	bytes0, msgs0 := env.Acct.Bytes(ChanServerOwner), env.Acct.Messages(ChanServerOwner)

	for _, items := range [][]ReEncryptItem{nil, {}} {
		if rep, err := env.Server.ReEncrypt(ownerID, items); !errors.Is(err, ErrEmptyBatch) || rep != nil {
			t.Fatalf("in-process: got %+v, %v; want nil, ErrEmptyBatch", rep, err)
		}
	}
	rep, err := remote.ReEncrypt(ownerID, nil)
	var serverErr rpc.ServerError
	if !errors.As(err, &serverErr) || err.Error() != ErrEmptyBatch.Error() || rep != nil {
		t.Fatalf("rpc: got %+v, %v (%T); want nil and a plain ErrEmptyBatch error", rep, err, err)
	}
	status, body := httpReEncrypt(t, ts.URL, ownerID, nil)
	if status != http.StatusBadRequest || !strings.Contains(string(body), ErrEmptyBatch.Error()) {
		t.Fatalf("http: status %d body %s, want 400 naming ErrEmptyBatch", status, body)
	}

	m := env.Server.Metrics()
	if m.ReEncryptRequests != m0.ReEncryptRequests || m.ReEncryptItems != m0.ReEncryptItems ||
		m.ReEncryptFailures != m0.ReEncryptFailures || m.Owners[ownerID] != m0.Owners[ownerID] {
		t.Fatalf("empty batches metered: %+v -> %+v", m0.Owners[ownerID], m.Owners[ownerID])
	}
	if env.Acct.Bytes(ChanServerOwner) != bytes0 || env.Acct.Messages(ChanServerOwner) != msgs0 {
		t.Fatal("empty batches reached the Server↔Owner tally")
	}
}
