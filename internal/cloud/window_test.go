package cloud

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"maacs/internal/core"
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
// the stored state the unwindowed fused run produces — windowing changes
// locking and scheduling, never ciphertexts.
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

// TestReEncryptBatchAdaptiveMatchesFixed is the differential test for
// adaptive window sizing: with a wall-time target set, the server rescales
// each window from the previous window's measured engine wall time — but the
// stored ciphertexts must come out bit-identical to a fixed-window run and to
// the unwindowed fused run. Sizing changes scheduling, never output.
func TestReEncryptBatchAdaptiveMatchesFixed(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	ownerID := owner.Owner.ID()

	uk, uis := revocationInputs(t, env, owner)
	items := perCiphertextItems(uk, uis)

	seed, fresh := restorer(t, env)
	fixed, adaptive, unwin := fresh(), fresh(), fresh()
	fixed.SetBatchWindow(2)
	adaptive.SetBatchWindow(2)

	repF, err := fixed.ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}
	// A generous target lets the adaptive run grow past the initial window; a
	// tiny target would shrink back to 1-item windows. Either way the output
	// must not change. The unwindowed server gets the same target, which it
	// must ignore.
	adaptive.SetBatchWindowTarget(time.Minute)
	unwin.SetBatchWindowTarget(time.Minute)
	repA, err := adaptive.ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}
	repU, err := unwin.ReEncrypt(ownerID, items)
	if err != nil {
		t.Fatal(err)
	}

	for name, rep := range map[string]*BatchReport{"fixed": repF, "adaptive": repA, "unwindowed": repU} {
		total := 0
		for _, sz := range rep.WindowSizes {
			total += sz
		}
		if total != len(items) || len(rep.WindowSizes) != rep.Windows {
			t.Fatalf("%s run: window sizes %v across %d windows do not cover %d items",
				name, rep.WindowSizes, rep.Windows, len(items))
		}
		if rep.NextItem != len(items) {
			t.Fatalf("%s run: NextItem %d, want %d", name, rep.NextItem, len(items))
		}
	}
	if repF.WindowSizes[0] != 2 || repA.WindowSizes[0] != 2 {
		t.Fatalf("first window must honour the configured cap: fixed %v, adaptive %v",
			repF.WindowSizes, repA.WindowSizes)
	}
	// The unwindowed run ignores the target entirely.
	if repU.Windows != 1 {
		t.Fatalf("unwindowed run split into %d windows", repU.Windows)
	}

	sf := snapshotBytes(t, fixed)
	if !bytes.Equal(sf, snapshotBytes(t, adaptive)) {
		t.Fatal("adaptive windowing diverged from fixed windowing")
	}
	if !bytes.Equal(sf, snapshotBytes(t, unwin)) {
		t.Fatal("windowed runs diverged from the unwindowed run")
	}
	if bytes.Equal(sf, seed) {
		t.Fatal("re-encryption did not change the stored ciphertexts")
	}
}

// TestNextWindowSize pins the adaptive resizing rule: scale to the target at
// the observed per-item cost, grow at most 4x per step, never below one item.
func TestNextWindowSize(t *testing.T) {
	cases := []struct {
		prev   int
		did    int
		wallNs int64
		target time.Duration
		want   int
	}{
		{2, 2, int64(20 * time.Millisecond), 100 * time.Millisecond, 8},  // 10ms/item → 10 items, capped at 4x
		{4, 4, int64(4 * time.Millisecond), 100 * time.Millisecond, 16},  // 1ms/item → 100, capped at 16
		{8, 8, int64(800 * time.Millisecond), 100 * time.Millisecond, 1}, // 100ms/item → 1
		{8, 8, int64(400 * time.Millisecond), 100 * time.Millisecond, 2}, // 50ms/item → 2
		{3, 3, 0, 100 * time.Millisecond, 12},                            // no measurement → grow 4x
		{0, 0, 0, 100 * time.Millisecond, 4},                             // degenerate prev clamps to 1, then 4x
		{5, 5, int64(50 * time.Millisecond), 50 * time.Millisecond, 5},   // on target → hold
	}
	for _, c := range cases {
		if got := nextWindowSize(c.prev, c.did, c.wallNs, c.target); got != c.want {
			t.Errorf("nextWindowSize(%d, %d, %d, %v) = %d, want %d",
				c.prev, c.did, c.wallNs, c.target, got, c.want)
		}
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
	rec7, err := env.Server.Fetch("patient-7")
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

// snapshotBytes returns the server's snapshot, which marshals every stored
// ciphertext in a deterministic order.
func snapshotBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restorer snapshots env.Server and returns the snapshot plus a constructor
// for fresh servers restored from it.
func restorer(t *testing.T, env *Env) ([]byte, func() *Server) {
	t.Helper()
	seed := snapshotBytes(t, env.Server)
	return seed, func() *Server {
		s := NewServer(env.Sys, nil)
		if err := s.Restore(bytes.NewReader(seed)); err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// marshalRecord serializes every component ciphertext of one record.
func marshalRecord(t *testing.T, s *Server, recordID string) []byte {
	t.Helper()
	rec, err := s.Fetch(recordID)
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
