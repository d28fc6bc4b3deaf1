package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/rpc"
	"strings"
	"sync/atomic"
	"testing"
)

// midBatchConflict prepares the resume scenario on env: five per-ciphertext
// items over two records, a reference server that ran them uninterrupted,
// and env.Server set to one-item windows with its commit hook armed to fail
// the second window once. Just before that commit the owner's records are
// deleted and re-stored with equal values but fresh pointers, so the
// window's ReplaceIfUnchanged sees a conflict — the transient kind of
// failure a resume exists for.
func midBatchConflict(t *testing.T, env *Env, owner *OwnerClient) ([]ReEncryptItem, *Server) {
	t.Helper()
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	ownerID := owner.Owner.ID()

	uk, uis := revocationInputs(t, env, owner)
	items := perCiphertextItems(uk, uis)
	if len(items) != 5 {
		t.Fatalf("corpus has %d items, want 5", len(items))
	}

	// Reference: the same batch run to completion on a pristine copy.
	_, fresh := restorer(t, env)
	ref := fresh()
	if _, err := ref.ReEncrypt(ownerID, items); err != nil {
		t.Fatal(err)
	}

	env.Server.SetBatchWindow(1)
	var commits atomic.Int32
	env.Server.commitHook = func() {
		if commits.Add(1) != 2 {
			return
		}
		for _, id := range []string{"patient-7", "patient-8"} {
			rec, err := fetchRecord(env.Server, id)
			if err != nil {
				t.Errorf("hook fetch %s: %v", id, err)
				return
			}
			if _, err := env.Server.Delete(id, ownerID); err != nil {
				t.Errorf("hook delete %s: %v", id, err)
				return
			}
			if err := env.Server.Store(rec); err != nil {
				t.Errorf("hook re-store %s: %v", id, err)
				return
			}
		}
	}
	return items, ref
}

// TestRPCBatchResumeByResubmission kills a windowed batch mid-way over
// net/rpc and completes it by resubmitting items[NextItem:]. net/rpc drops
// the reply on a non-nil error, so the partial report must still arrive
// alongside the failure, and the resubmission must land on exactly the state
// of an uninterrupted run.
func TestRPCBatchResumeByResubmission(t *testing.T) {
	env, owner := hospitalEnv(t)
	items, ref := midBatchConflict(t, env, owner)
	remote := remoteFor(t, env.Sys, env.Server)
	ownerID := owner.Owner.ID()

	report, err := remote.ReEncrypt(ownerID, items)
	var serverErr rpc.ServerError
	if !errors.As(err, &serverErr) || !strings.Contains(err.Error(), ErrReEncryptConflict.Error()) {
		t.Fatalf("got %v (%T), want a conflict rpc.ServerError", err, err)
	}
	if report == nil {
		t.Fatal("no partial report alongside the failure")
	}
	if report.NextItem != 1 || report.Windows != 1 || report.Ciphertexts != 1 {
		t.Fatalf("partial report %+v, want the first window committed and the second conflicted", report)
	}
	if len(report.Committed) != 1 {
		t.Fatalf("committed %v, want the one record of the first window", report.Committed)
	}

	rep2, err := remote.ReEncrypt(ownerID, items[report.NextItem:])
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.NextItem != len(items)-1 || rep2.Ciphertexts != 4 {
		t.Fatalf("resume report %+v, want the 4 uncommitted items", rep2)
	}
	if !bytes.Equal(snapshotBytes(t, env.Server), snapshotBytes(t, ref)) {
		t.Fatal("batch + resubmission diverged from the uninterrupted reference run")
	}
}

// TestHTTPBatchResumeByResubmission runs the same interrupted batch through
// the HTTP gateway: the failure is a 409 whose error envelope carries
// committed, windows and next_item, and resubmitting items[next_item:]
// lands on exactly the state of an uninterrupted run.
func TestHTTPBatchResumeByResubmission(t *testing.T) {
	env, owner := hospitalEnv(t)
	items, ref := midBatchConflict(t, env, owner)
	ts := httptest.NewServer(NewHTTPHandler(env.Sys, env.Server))
	t.Cleanup(ts.Close)
	ownerID := owner.Owner.ID()

	status, body := httpReEncrypt(t, ts.URL, ownerID, items)
	if status != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", status, body)
	}
	var envelope httpError
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(envelope.Error, ErrReEncryptConflict.Error()) {
		t.Fatalf("error %q does not report the conflict", envelope.Error)
	}
	if envelope.NextItem != 1 || envelope.Windows != 1 || len(envelope.Committed) != 1 {
		t.Fatalf("envelope %s, want next_item 1, windows 1 and one committed record", body)
	}

	status, body = httpReEncrypt(t, ts.URL, ownerID, items[envelope.NextItem:])
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %s", status, body)
	}
	var rep2 HTTPBatchReEncryptResponse
	if err := json.Unmarshal(body, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.NextItem != len(items)-1 || rep2.Ciphertexts != 4 {
		t.Fatalf("resume report %+v, want the 4 uncommitted items", rep2)
	}
	if !bytes.Equal(snapshotBytes(t, env.Server), snapshotBytes(t, ref)) {
		t.Fatal("batch + resubmission diverged from the uninterrupted reference run")
	}
}
