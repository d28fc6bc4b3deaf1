package cloud

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
)

// hospitalEnv builds the paper's motivating scenario: a medical organization
// and a clinical-trial administrator as independent authorities, one owner,
// and a personal-data record split by logical granularity (Fig. 2).
func hospitalEnv(t *testing.T) (*Env, *OwnerClient) {
	t.Helper()
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
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
	return env, owner
}

func addUser(t *testing.T, env *Env, uid string, attrs map[string][]string) *UserClient {
	t.Helper()
	uc, err := env.AddUser(uid)
	if err != nil {
		t.Fatal(err)
	}
	for aid, names := range attrs {
		a, ok := env.Authority(aid)
		if !ok {
			t.Fatalf("no authority %q", aid)
		}
		if err := a.GrantAttributes(uc, names); err != nil {
			t.Fatal(err)
		}
	}
	return uc
}

func uploadPatientRecord(t *testing.T, owner *OwnerClient) *Record {
	t.Helper()
	rec, err := owner.Upload("patient-7", []UploadComponent{
		{Label: "name", Data: []byte("Alice Liddell"), Policy: "med:doctor OR med:nurse"},
		{Label: "diagnosis", Data: []byte("hypertension"), Policy: "med:doctor"},
		{Label: "trial-data", Data: []byte("cohort B, responder"), Policy: "med:doctor AND trial:researcher"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// fetchRecord downloads a whole record, unattributed, through FetchWire and
// decodes it as every client does.
func fetchRecord(s *Server, id string) (*Record, error) {
	ownerID, raw, err := s.FetchWire(id, "", "")
	if err != nil {
		return nil, err
	}
	comps, err := decodeComponents(s.sys, id, raw)
	if err != nil {
		return nil, err
	}
	return &Record{ID: id, OwnerID: ownerID, Components: comps}, nil
}

// recordCount is the number of records the server's store holds.
func recordCount(s *Server) int { return len(s.store.Records()) }

func TestEndToEndUploadDownload(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	doctor := addUser(t, env, "dr-bob", map[string][]string{
		"med":   {"doctor"},
		"trial": {"researcher"},
	})
	got, err := doctor.Download("patient-7", "trial-data")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("cohort B, responder")) {
		t.Fatalf("got %q", got)
	}
}

func TestFineGrainedAccess(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)

	// A nurse (no trial affiliation) sees only the name.
	nurse := addUser(t, env, "nurse-eve", map[string][]string{
		"med":   {"nurse"},
		"trial": nil,
	})
	visible, err := nurse.DownloadRecord("patient-7")
	if err != nil {
		t.Fatal(err)
	}
	if len(visible) != 1 || string(visible["name"]) != "Alice Liddell" {
		t.Fatalf("nurse sees %v, want only name", keysOf(visible))
	}

	// A doctor with a trial affiliation sees everything.
	doctor := addUser(t, env, "dr-bob", map[string][]string{
		"med":   {"doctor"},
		"trial": {"researcher"},
	})
	visible, err = doctor.DownloadRecord("patient-7")
	if err != nil {
		t.Fatal(err)
	}
	if len(visible) != 3 {
		t.Fatalf("doctor sees %v, want all 3 components", keysOf(visible))
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDownloadDeniedWithoutAttributes(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	outsider := addUser(t, env, "mallory", map[string][]string{
		"med":   nil,
		"trial": {"admin"},
	})
	if _, err := outsider.Download("patient-7", "diagnosis"); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("got %v, want ErrNoAccess", err)
	}
}

func TestEndToEndRevocation(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	alice := addUser(t, env, "dr-alice", map[string][]string{
		"med":   {"doctor"},
		"trial": {"researcher"},
	})
	bob := addUser(t, env, "dr-bob", map[string][]string{
		"med":   {"doctor"},
		"trial": {"researcher"},
	})

	// Both can initially read the diagnosis.
	if _, err := alice.Download("patient-7", "diagnosis"); err != nil {
		t.Fatal(err)
	}

	med, _ := env.Authority("med")
	report, err := med.RevokeAttribute("dr-alice", "doctor")
	if err != nil {
		t.Fatal(err)
	}
	if report.NewVersion != 1 {
		t.Fatalf("version = %d, want 1", report.NewVersion)
	}
	if report.UsersUpdated != 1 { // only bob holds med attributes
		t.Fatalf("users updated = %d, want 1", report.UsersUpdated)
	}
	// 3 stored ciphertexts involve med attributes (all three policies).
	if report.CiphertextsHit != 3 {
		t.Fatalf("ciphertexts hit = %d, want 3", report.CiphertextsHit)
	}

	// Alice lost access to everything gated on med:doctor…
	if _, err := alice.Download("patient-7", "diagnosis"); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("revoked user still reads: %v", err)
	}
	if _, err := alice.Download("patient-7", "trial-data"); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("revoked user still reads trial data: %v", err)
	}
	// …while bob keeps access to the re-encrypted data.
	if got, err := bob.Download("patient-7", "diagnosis"); err != nil || !bytes.Equal(got, []byte("hypertension")) {
		t.Fatalf("non-revoked user lost access: %v", err)
	}

	// A user joining after the revocation can read the old (re-encrypted)
	// record.
	carol := addUser(t, env, "dr-carol", map[string][]string{
		"med":   {"doctor"},
		"trial": {"researcher"},
	})
	if got, err := carol.Download("patient-7", "diagnosis"); err != nil || !bytes.Equal(got, []byte("hypertension")) {
		t.Fatalf("late joiner cannot read re-encrypted record: %v", err)
	}

	// New uploads are also closed to alice and open to bob.
	if _, err := owner.Upload("patient-8", []UploadComponent{
		{Label: "diagnosis", Data: []byte("flu"), Policy: "med:doctor"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Download("patient-8", "diagnosis"); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("revoked user reads new uploads: %v", err)
	}
	if _, err := bob.Download("patient-8", "diagnosis"); err != nil {
		t.Fatalf("non-revoked user cannot read new uploads: %v", err)
	}
}

func TestRevocationKeepsOtherAttributes(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	eve := addUser(t, env, "eve", map[string][]string{
		"med":   {"doctor", "nurse"},
		"trial": nil,
	})
	med, _ := env.Authority("med")
	if _, err := med.RevokeAttribute("eve", "doctor"); err != nil {
		t.Fatal(err)
	}
	// She keeps the nurse path…
	if got, err := eve.Download("patient-7", "name"); err != nil || !bytes.Equal(got, []byte("Alice Liddell")) {
		t.Fatalf("kept attribute broken: %v", err)
	}
	// …but not the doctor path.
	if _, err := eve.Download("patient-7", "diagnosis"); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("revoked attribute still works: %v", err)
	}
}

func TestRevokeUnheldAttributeFails(t *testing.T) {
	env, _ := hospitalEnv(t)
	addUser(t, env, "u", map[string][]string{"med": {"nurse"}, "trial": nil})
	med, _ := env.Authority("med")
	if _, err := med.RevokeAttribute("u", "doctor"); err == nil {
		t.Fatal("revoking an unheld attribute succeeded")
	}
}

func TestServerErrors(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	if _, _, err := env.Server.FetchWire("ghost", "", ""); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("got %v, want ErrRecordNotFound", err)
	}
	if _, _, err := env.Server.FetchWire("patient-7", "ghost", ""); !errors.Is(err, ErrComponentNotFound) {
		t.Fatalf("got %v, want ErrComponentNotFound", err)
	}
	// FetchWire reads an empty label as the whole record; Download must not.
	doctor := addUser(t, env, "dr-err", map[string][]string{"med": {"doctor"}})
	if _, err := doctor.Download("patient-7", ""); !errors.Is(err, ErrComponentNotFound) {
		t.Fatalf("empty label: got %v, want ErrComponentNotFound", err)
	}
	rec := &Record{ID: "patient-7", OwnerID: "hospital"}
	if err := env.Server.Store(rec); err == nil {
		t.Fatal("duplicate store accepted")
	}
}

func TestAccountingMetersChannels(t *testing.T) {
	env, owner := hospitalEnv(t)
	// Owner↔AA key exchange happened during setup (AddOwner).
	if env.Acct.Messages(ChanAAOwner) == 0 {
		t.Fatal("owner-authority exchange not metered")
	}
	env.Acct.Reset()
	uploadPatientRecord(t, owner)
	if env.Acct.Bytes(ChanServerOwner) == 0 {
		t.Fatal("upload not metered on Server↔Owner")
	}
	u := addUser(t, env, "dr-x", map[string][]string{"med": {"doctor"}, "trial": {"researcher"}})
	if env.Acct.Bytes(ChanAAUser) == 0 {
		t.Fatal("key issuing not metered on AA↔User")
	}
	if _, err := u.Download("patient-7", "diagnosis"); err != nil {
		t.Fatal(err)
	}
	if env.Acct.Bytes(ChanServerUser) == 0 {
		t.Fatal("download not metered on Server↔User")
	}
	if got := len(env.Acct.Channels()); got < 3 {
		t.Fatalf("only %d channels metered", got)
	}
}

func TestLateOwnerRegistersWithExistingAuthorities(t *testing.T) {
	env, _ := hospitalEnv(t)
	owner2, err := env.AddOwner("clinic")
	if err != nil {
		t.Fatal(err)
	}
	u := addUser(t, env, "dr-y", map[string][]string{"med": {"doctor"}, "trial": nil})
	if _, err := owner2.Upload("rec", []UploadComponent{
		{Label: "x", Data: []byte("data"), Policy: "med:doctor"},
	}); err != nil {
		t.Fatal(err)
	}
	// dr-y was enrolled after owner2 existed, so keys cover owner2 too.
	if got, err := u.Download("rec", "x"); err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("cross-owner access failed: %v", err)
	}
}
