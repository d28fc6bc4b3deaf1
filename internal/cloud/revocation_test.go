package cloud

import (
	"bytes"
	"crypto/rand"
	"errors"
	"strings"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
)

// TestRevocationBuildsEachTableOnce runs three Section V-C revocations over
// three stored ciphertexts: the owner's update information and public-key
// update through core, the re-encryption through Server.ReEncrypt. Each
// must build exactly one preparation, its own UK1's, and reuse it for every
// other ciphertext, and one comb per affected PK_x, reused for every other
// ciphertext and by ApplyUpdate. The first revocation builds no comb: the
// uploads built them on the same PK_x. A UK1 or PK_x that retires takes its
// tables with it, so nothing is left to evict.
func TestRevocationBuildsEachTableOnce(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	aa, err := env.AddAuthority("rt", []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("rt-owner")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"r1", "r2", "r3"}
	for _, id := range ids {
		comps := []UploadComponent{{Label: "c", Data: []byte(id), Policy: "rt:x AND rt:y"}}
		if _, err := owner.Upload(id, comps); err != nil {
			t.Fatal(err)
		}
	}

	const affected = 2 // rt:x and rt:y
	cts := uint64(len(ids))
	for i := 0; i < 3; i++ {
		fromV, _, err := aa.AA.Rekey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		uk, err := aa.AA.UpdateKeyFor(owner.Owner.SecretKeyForAAs(), fromV)
		if err != nil {
			t.Fatal(err)
		}
		stored := env.Server.CiphertextsOf("rt-owner")

		before := pairing.SnapshotOpCounts()
		uis, err := owner.Owner.RevocationUpdate(uk, stored)
		if err != nil {
			t.Fatal(err)
		}
		item := ReEncryptItem{UK: uk, UIs: make(map[string]*core.UpdateInfo)}
		for _, ui := range uis {
			item.UIs[ui.CiphertextID] = ui
		}
		if _, err := env.Server.ReEncrypt("rt-owner", []ReEncryptItem{item}); err != nil {
			t.Fatal(err)
		}
		d := pairing.SnapshotOpCounts().Delta(before)

		if d.PrepBuilds != 1 || d.PrepReuses != cts-1 {
			t.Fatalf("revocation %d: %d preparations built and %d reused, want 1 and %d", i, d.PrepBuilds, d.PrepReuses, cts-1)
		}
		wantBuilds := uint64(affected)
		if i == 0 {
			wantBuilds = 0
		}
		if uses := d.TableBuilds + d.TableReuses; d.TableBuilds != wantBuilds || uses != affected*(cts+1) {
			t.Fatalf("revocation %d: %d combs built in %d uses, want %d in %d", i, d.TableBuilds, uses, wantBuilds, affected*(cts+1))
		}
	}
}

// TestRevokeUserContinuesPastFailures is the regression test for the
// half-applied revocation bug: a failing attribute used to abort the loop,
// leaving later attributes silently unrevoked with no record of progress.
// Now every attribute is attempted, the outcome slice says which legs ran,
// and the joined error names each failure.
func TestRevokeUserContinuesPastFailures(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	eve := addUser(t, env, "eve", map[string][]string{
		"med":   {"doctor", "nurse"},
		"trial": nil,
	})
	med, _ := env.Authority("med")

	boom := errors.New("authority key store unavailable")
	med.revokeAttrHook = func(uid, attr string) (*RevocationReport, error) {
		if attr == "doctor" {
			return nil, boom
		}
		return med.RevokeAttribute(uid, attr)
	}

	outcomes, err := med.RevokeUser("eve")
	if err == nil {
		t.Fatal("half-applied revocation reported success")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("joined error lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), `"doctor"`) || !strings.Contains(err.Error(), "eve") {
		t.Fatalf("error does not name the failing leg: %v", err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outcomes))
	}
	d, n := outcomes[0], outcomes[1]
	if d.Attr != "doctor" || d.Err == nil || d.Report != nil {
		t.Fatalf("doctor outcome %+v, want recorded failure", d)
	}
	if !errors.Is(d.Err, boom) {
		t.Fatalf("doctor outcome error %v", d.Err)
	}
	if n.Attr != "nurse" || n.Err != nil || n.Report == nil {
		t.Fatalf("nurse outcome %+v, want success despite earlier failure", n)
	}

	// The successful leg really ran: one version bump, the nurse attribute
	// gone from eve's holdings, the doctor attribute (whose revocation
	// failed) still held and still usable.
	if v := med.AA.Version(); v != 1 {
		t.Fatalf("version %d, want 1 (one successful revocation)", v)
	}
	if held := med.HolderAttrs("eve"); len(held) != 1 || held[0] != "doctor" {
		t.Fatalf("eve still holds %v, want [doctor]", held)
	}
	if got, err := eve.Download("patient-7", "diagnosis"); err != nil || !bytes.Equal(got, []byte("hypertension")) {
		t.Fatalf("unrevoked attribute broken: %v", err)
	}

	// Retrying after the fault clears finishes the job.
	med.revokeAttrHook = nil
	outcomes, err = med.RevokeUser("eve")
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1 || outcomes[0].Attr != "doctor" || outcomes[0].Report == nil {
		t.Fatalf("retry outcomes %+v", outcomes)
	}
	if _, err := eve.Download("patient-7", "diagnosis"); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("fully revoked user still reads: %v", err)
	}
}

// TestRevokeUserAllFailuresJoined: when every leg fails, the error joins all
// of them and no outcome carries a report.
func TestRevokeUserAllFailuresJoined(t *testing.T) {
	env, _ := hospitalEnv(t)
	addUser(t, env, "mallory", map[string][]string{
		"med":   {"doctor", "nurse"},
		"trial": nil,
	})
	med, _ := env.Authority("med")
	med.revokeAttrHook = func(uid, attr string) (*RevocationReport, error) {
		return nil, errors.New("offline: " + attr)
	}
	outcomes, err := med.RevokeUser("mallory")
	if err == nil {
		t.Fatal("all-failed revocation reported success")
	}
	for _, want := range []string{`"doctor"`, `"nurse"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %s: %v", want, err)
		}
	}
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Err == nil || o.Report != nil {
			t.Fatalf("outcome %+v, want recorded failure", o)
		}
	}
	// Nothing succeeded, so nothing was rekeyed and nothing was lost.
	if v := med.AA.Version(); v != 0 {
		t.Fatalf("version %d after all-failed revocation, want 0", v)
	}
	if held := med.HolderAttrs("mallory"); len(held) != 2 {
		t.Fatalf("holdings changed despite failures: %v", held)
	}
}
