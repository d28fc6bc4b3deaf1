package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"maacs/internal/core"
	"maacs/internal/wire"
)

// perCiphertextItems splits one revocation's update-info set into one batch
// item per ciphertext (sorted by ciphertext ID), so a window of w fuses
// exactly w ciphertexts per engine run.
func perCiphertextItems(uk *core.UpdateKey, uis map[string]*core.UpdateInfo) []ReEncryptItem {
	ids := make([]string, 0, len(uis))
	for id := range uis {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	items := make([]ReEncryptItem, len(ids))
	for i, id := range ids {
		items[i] = ReEncryptItem{UK: uk, UIs: map[string]*core.UpdateInfo{id: uis[id]}}
	}
	return items
}

// uploadSecondRecord gives the owner a second record so batches span records.
func uploadSecondRecord(t *testing.T, owner *OwnerClient) {
	t.Helper()
	if _, err := owner.Upload("patient-8", []UploadComponent{
		{Label: "name", Data: []byte("Bill"), Policy: "med:doctor"},
		{Label: "diagnosis", Data: []byte("flu"), Policy: "med:doctor OR med:nurse"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReEncryptBatchWindowedMatchesUnwindowed is the differential test for
// the streaming mode: a window smaller than the batch must produce exactly
// the stored state one fused run produces (the default window holds all five
// items) — windowing changes locking and scheduling, never ciphertexts.
func TestReEncryptBatchWindowedMatchesUnwindowed(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	ownerID := owner.Owner.ID()

	uk, uis := revocationInputs(t, env, owner)
	items := perCiphertextItems(uk, uis)
	if len(items) != 5 {
		t.Fatalf("corpus has %d update infos, want 5", len(items))
	}

	// Seed two identical servers from a snapshot of the live one.
	seed, fresh := restorer(t, env)
	unwin, win := fresh(), fresh()
	win.SetBatchWindow(2)

	repU, err := unwin.ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}
	repW, err := win.ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}

	if repU.Windows != 1 || repU.Window != 5 {
		t.Fatalf("unwindowed run: %d windows of %d, want 1 of 5", repU.Windows, repU.Window)
	}
	if repW.Windows != 3 || repW.Window != 2 {
		t.Fatalf("windowed run: %d windows of %d, want 3 of 2", repW.Windows, repW.Window)
	}
	if repU.Ciphertexts != 5 || repW.Ciphertexts != 5 || repU.Rows != repW.Rows {
		t.Fatalf("work diverged: %+v vs %+v", repU, repW)
	}
	want := []string{"patient-7", "patient-8"}
	if !slices.Equal(repU.Committed, want) || !slices.Equal(repW.Committed, want) {
		t.Fatalf("committed %v / %v, want %v", repU.Committed, repW.Committed, want)
	}

	// Bit-identical stored state (Snapshot marshals every ciphertext).
	su := snapshotBytes(t, unwin)
	if !bytes.Equal(su, snapshotBytes(t, win)) {
		t.Fatal("windowed batch diverged from unwindowed batch")
	}
	if bytes.Equal(su, seed) {
		t.Fatal("re-encryption did not change the stored ciphertexts")
	}

	// One item carrying the whole update-info set agrees too.
	if _, err := env.Server.ReEncrypt(ownerID, []ReEncryptItem{{UK: uk, UIs: uis}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, env.Server), su) {
		t.Fatal("per-ciphertext items diverged from one item carrying every update info")
	}

	// Per-owner attribution on the windowed server.
	o := win.Metrics().Owners[ownerID]
	if o.ReEncryptRequests != 1 || o.ReEncryptFailures != 0 {
		t.Fatalf("owner requests/failures = %d/%d, want 1/0", o.ReEncryptRequests, o.ReEncryptFailures)
	}
	if o.ReEncryptItems != 5 || o.ReEncryptedCiphertexts != 5 || o.Records != 2 {
		t.Fatalf("owner stats %+v", o)
	}
	if o.Engine.Jobs == 0 || o.Engine.WallNs <= 0 {
		t.Fatalf("owner engine stats empty: %+v", o.Engine)
	}
}

// TestReEncryptDefaultWindow: a server nobody configured runs the deployed
// window — a 65-item batch fuses its first 64 items into one engine run and
// commit and the last item into a second.
func TestReEncryptDefaultWindow(t *testing.T) {
	env, owner := hospitalEnv(t)
	comps := make([]UploadComponent, 65)
	for i := range comps {
		comps[i] = UploadComponent{Label: fmt.Sprintf("c%02d", i), Data: []byte{byte(i)}, Policy: "med:doctor"}
	}
	if _, err := owner.Upload("bulk", comps); err != nil {
		t.Fatal(err)
	}
	uk, uis := revocationInputs(t, env, owner)
	items := perCiphertextItems(uk, uis)
	if len(items) != 65 {
		t.Fatalf("corpus has %d update infos, want 65", len(items))
	}
	rep, err := env.Server.ReEncrypt(owner.Owner.ID(), items)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 2 || rep.Window != 64 {
		t.Fatalf("%d windows of %d, want 2 of 64", rep.Windows, rep.Window)
	}
	if rep.Ciphertexts != 65 || rep.NextItem != 65 {
		t.Fatalf("committed %d ciphertexts, next item %d; want 65 and 65", rep.Ciphertexts, rep.NextItem)
	}
}

// TestReEncryptBatchMidFailureReportsCommitted injects a failure into the
// second window of a streaming batch (a stale update info left over from an
// earlier version) and checks the partial-commit contract: the error names
// the failing record, BatchReport.Committed names exactly the records whose
// slots were replaced, the failing window's slots are untouched, and the
// failure is visible in the cumulative and per-owner counters.
func TestReEncryptBatchMidFailureReportsCommitted(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	ownerID := owner.Owner.ID()

	// Rekey once and apply it, so uis1 becomes stale...
	uk1, uis1 := revocationInputs(t, env, owner)
	if _, err := env.Server.ReEncrypt(ownerID, []ReEncryptItem{{UK: uk1, UIs: uis1}}); err != nil {
		t.Fatal(err)
	}
	// ...then rekey again for a current update-info set.
	uk2, uis2 := revocationInputs(t, env, owner)

	// Item 0: valid updates for patient-7's ciphertexts. Item 1: stale
	// version-0 updates for patient-8's — its window must fail.
	rec7, err := fetchRecord(env.Server, "patient-7")
	if err != nil {
		t.Fatal(err)
	}
	in7 := make(map[string]bool)
	for _, c := range rec7.Components {
		in7[c.CT.ID] = true
	}
	valid, stale, remainder := map[string]*core.UpdateInfo{}, map[string]*core.UpdateInfo{}, map[string]*core.UpdateInfo{}
	for id, ui := range uis2 {
		if in7[id] {
			valid[id] = ui
		} else {
			remainder[id] = ui
		}
	}
	for id, ui := range uis1 {
		if !in7[id] {
			stale[id] = ui
		}
	}
	if len(valid) != 3 || len(stale) != 2 {
		t.Fatalf("split %d valid / %d stale, want 3/2", len(valid), len(stale))
	}

	before := marshalRecord(t, env.Server, "patient-8")
	m0 := env.Server.Metrics()

	items := []ReEncryptItem{{UK: uk2, UIs: valid}, {UK: uk2, UIs: stale}}
	env.Server.SetBatchWindow(1)
	report, err := env.Server.ReEncrypt(ownerID, items)
	if err == nil {
		t.Fatal("stale window committed")
	}
	if !errors.Is(err, core.ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
	if !strings.Contains(err.Error(), "patient-8") {
		t.Fatalf("error does not name the failing record: %v", err)
	}
	if report == nil {
		t.Fatal("no partial report on mid-batch failure")
	}
	if !slices.Equal(report.Committed, []string{"patient-7"}) {
		t.Fatalf("committed %v, want exactly [patient-7]", report.Committed)
	}
	if report.Windows != 1 || report.Window != 1 {
		t.Fatalf("windows/window = %d/%d, want 1/1", report.Windows, report.Window)
	}
	if report.Items[0].Ciphertexts != 3 || report.Items[1].Ciphertexts != 0 {
		t.Fatalf("per-item counts %+v", report.Items)
	}
	if report.Ciphertexts != 3 {
		t.Fatalf("committed %d ciphertexts, want 3", report.Ciphertexts)
	}

	// The failing window's slots are untouched.
	if !bytes.Equal(before, marshalRecord(t, env.Server, "patient-8")) {
		t.Fatal("failed window modified stored ciphertexts")
	}

	// The failure is counted, the committed window stays metered, and the
	// partial batch is not a "request".
	m := env.Server.Metrics()
	if m.ReEncryptFailures != m0.ReEncryptFailures+1 {
		t.Fatalf("failures %d, want %d", m.ReEncryptFailures, m0.ReEncryptFailures+1)
	}
	if m.ReEncryptRequests != m0.ReEncryptRequests {
		t.Fatalf("failed batch counted as request: %d -> %d", m0.ReEncryptRequests, m.ReEncryptRequests)
	}
	if m.ReEncryptedCiphertexts != m0.ReEncryptedCiphertexts+3 {
		t.Fatalf("committed window not metered: %d -> %d", m0.ReEncryptedCiphertexts, m.ReEncryptedCiphertexts)
	}
	o := m.Owners[ownerID]
	if o.ReEncryptFailures != 1 || o.ReEncryptedCiphertexts != m.ReEncryptedCiphertexts {
		t.Fatalf("owner row not updated: %+v", o)
	}

	// Recovery: resubmitting only the uncommitted remainder succeeds.
	rep2, err := env.Server.ReEncrypt(ownerID, []ReEncryptItem{{UK: uk2, UIs: remainder}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep2.Committed, []string{"patient-8"}) {
		t.Fatalf("recovery committed %v, want [patient-8]", rep2.Committed)
	}
	if bytes.Equal(before, marshalRecord(t, env.Server, "patient-8")) {
		t.Fatal("recovery batch did not re-encrypt")
	}
}

// snapshotBytes encodes every stored record in ID order in the snapshot wire
// format, so equal bytes mean bit-identical stored states.
func snapshotBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var e wire.Encoder
	for _, rec := range s.store.Records() {
		encodeRecord(&e, rec)
	}
	return e.Bytes()
}

// restorer snapshots env.Server and returns the snapshot plus a constructor
// for fresh servers rebuilt from its records. Stored records are immutable,
// so the servers share them.
func restorer(t *testing.T, env *Env) ([]byte, func() *Server) {
	t.Helper()
	seed, recs := snapshotBytes(t, env.Server), env.Server.store.Records()
	return seed, func() *Server {
		s := NewServer(env.Sys, nil)
		for _, rec := range recs {
			if err := s.store.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
}

// marshalRecord serializes every component ciphertext of one record.
func marshalRecord(t *testing.T, s *Server, recordID string) []byte {
	t.Helper()
	rec, err := fetchRecord(s, recordID)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, c := range rec.Components {
		buf.Write(c.CT.Marshal())
		buf.Write(c.Sealed)
	}
	return buf.Bytes()
}
