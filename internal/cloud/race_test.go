package cloud

import (
	"crypto/rand"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"maacs/internal/core"
)

// revocationInputs rekeys the "med" authority and builds the owner-side
// update information for every stored ciphertext of the owner.
func revocationInputs(t *testing.T, env *Env, owner *OwnerClient) (*core.UpdateKey, map[string]*core.UpdateInfo) {
	t.Helper()
	med, ok := env.Authority("med")
	if !ok {
		t.Fatal("no med authority")
	}
	fromV, _, err := med.AA.Rekey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := med.AA.UpdateKeyFor(owner.Owner.SecretKeyForAAs(), fromV)
	if err != nil {
		t.Fatal(err)
	}
	cts := env.Server.CiphertextsOf(owner.Owner.ID())
	uiList, err := owner.Owner.RevocationUpdate(uk, cts)
	if err != nil {
		t.Fatal(err)
	}
	uis := make(map[string]*core.UpdateInfo, len(uiList))
	for i, ui := range uiList {
		if ui != nil {
			uis[cts[i].ID] = ui
		}
	}
	return uk, uis
}

// TestFetchDuringReEncryptNoRace is the regression test for the record
// aliasing bug: fetches and CiphertextsOf used to hand out views
// into live records after releasing the server lock, racing with ReEncrypt's
// component swap. Run under -race (scripts/check.sh does), concurrent
// readers over a re-encrypting server must stay clean and every snapshot
// must be internally consistent.
func TestFetchDuringReEncryptNoRace(t *testing.T) {
	// On a single-P runtime the cooperative scheduler serializes the readers
	// against the re-encryption closely enough that the detector can miss the
	// aliasing; force real interleaving so the regression reliably trips.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	if _, err := owner.Upload("patient-8", []UploadComponent{
		{Label: "name", Data: []byte("Bill"), Policy: "med:doctor"},
		{Label: "diagnosis", Data: []byte("flu"), Policy: "med:doctor OR med:nurse"},
	}); err != nil {
		t.Fatal(err)
	}
	reader := addUser(t, env, "reader", nil)

	// A couple of rounds so readers overlap several distinct re-encryptions.
	for round := 0; round < 3; round++ {
		uk, uis := revocationInputs(t, env, owner)

		stop := make(chan struct{})
		var wg, ready sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			ready.Add(1)
			go func() {
				defer wg.Done()
				// Download once, then keep using the result the way a client
				// would — decoding components while the revocation runs. With
				// aliasing fetch paths these reads hit the very slots
				// ReEncrypt swaps.
				rec, err := fetchRecord(env.Server, "patient-7")
				if err != nil {
					ready.Done()
					t.Errorf("fetch: %v", err)
					return
				}
				comps, err := reader.fetch("patient-8", "diagnosis")
				if err != nil {
					ready.Done()
					t.Errorf("fetch component: %v", err)
					return
				}
				cts := env.Server.CiphertextsOf(owner.Owner.ID())
				ready.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if len(rec.Components) != 3 {
						t.Errorf("snapshot has %d components", len(rec.Components))
						return
					}
					for i := range rec.Components {
						_ = rec.Components[i].CT.Size(env.Sys.Params)
					}
					_ = comps[0].CT.Size(env.Sys.Params)
					for _, ct := range cts {
						_ = ct.Size(env.Sys.Params)
					}
				}
			}()
		}

		// Only re-encrypt once every reader holds its downloaded view, so the
		// readers' lock-free reads genuinely overlap the component swaps.
		ready.Wait()
		report, err := env.Server.ReEncrypt(owner.Owner.ID(), []ReEncryptItem{{UK: uk, UIs: uis}})
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		// Let the readers run on against the post-re-encryption state before
		// stopping them: the unsynchronized read of a swapped slot is the
		// race this test pins.
		for i := 0; i < 3; i++ {
			if _, err := reader.DownloadRecord("patient-7"); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if report.Ciphertexts != 5 {
			t.Fatalf("round %d re-encrypted %d ciphertexts, want 5", round, report.Ciphertexts)
		}
	}
}

// TestMixedTrafficMetricsNoRace hammers the lock-free serving paths —
// attributed fetches (per-user counters), component fetches, metrics
// snapshots, Prometheus rendering and accounting reads — all while
// revocation re-encryptions stream through the store. Run under -race
// by scripts/check.sh; this is the regression test for the counter races on
// the lock-free read paths (noteDownload, acct.Add, the per-user stats map).
func TestMixedTrafficMetricsNoRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	if _, err := owner.Upload("patient-8", []UploadComponent{
		{Label: "name", Data: []byte("Bill"), Policy: "med:doctor"},
		{Label: "diagnosis", Data: []byte("flu"), Policy: "med:doctor OR med:nurse"},
	}); err != nil {
		t.Fatal(err)
	}
	ownerID := owner.Owner.ID()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// started is done once every hammer has finished one iteration, so the
	// final counters cannot be empty however fast the foreground runs.
	var started sync.WaitGroup
	hammer := func(f func(i int)) {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f(i)
				}
				if i == 0 {
					started.Done()
				}
			}
		}()
	}
	// Attributed downloads from rotating users: exercises the atomic server
	// counters and the per-user sync.Map rows.
	for g := 0; g < 2; g++ {
		g := g
		hammer(func(i int) {
			user := []string{"u-ann", "u-bob", "u-cho"}[(g+i)%3]
			if _, _, err := env.Server.FetchWire("patient-7", "", user); err != nil {
				t.Errorf("fetch: %v", err)
			}
			if _, _, err := env.Server.FetchWire("patient-8", "diagnosis", user); err != nil {
				t.Errorf("fetch component: %v", err)
			}
		})
	}
	// Metrics scrapers: snapshot the counters and render the exposition while
	// the writers run.
	hammer(func(int) {
		m := HTTPMetrics{Metrics: env.Server.Metrics(), Store: env.Server.StoreInfo(), Channels: env.Acct.Snapshot()}
		var buf strings.Builder
		if err := WritePrometheus(&buf, m); err != nil {
			t.Errorf("prometheus: %v", err)
		}
		_ = env.Acct.Bytes(ChanServerUser)
		_ = env.Acct.Messages(ChanServerOwner)
	})

	// Foreground: streamed re-encryptions with small windows, racing the
	// readers above for the same slots and counters.
	started.Wait()
	env.Server.SetBatchWindow(2)
	for round := 0; round < 3; round++ {
		uk, uis := revocationInputs(t, env, owner)
		if _, err := env.Server.ReEncrypt(ownerID, perCiphertextItems(uk, uis)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()

	// Sanity: the hammered counters are consistent with each other.
	m := env.Server.Metrics()
	if m.RecordFetches == 0 || m.ComponentFetches == 0 || m.FetchedBytes == 0 {
		t.Fatalf("hammer recorded nothing: %+v", m)
	}
	var users uint64
	for _, u := range m.Users {
		users += u.RecordFetches
	}
	if users != m.RecordFetches {
		t.Fatalf("per-user fetches %d != total %d", users, m.RecordFetches)
	}
	if m.Durations["fetch"].Count != m.RecordFetches {
		t.Fatalf("fetch histogram count %d != fetches %d", m.Durations["fetch"].Count, m.RecordFetches)
	}
}

// TestStoreDuplicateNotMetered is the regression test for the accounting
// bug: a rejected duplicate upload used to inflate the Server↔Owner tally
// even though no upload happened.
func TestStoreDuplicateNotMetered(t *testing.T) {
	env, owner := hospitalEnv(t)
	rec := uploadPatientRecord(t, owner)

	bytesAfterStore := env.Acct.Bytes(ChanServerOwner)
	msgsAfterStore := env.Acct.Messages(ChanServerOwner)
	if bytesAfterStore == 0 {
		t.Fatal("successful upload not metered")
	}

	err := env.Server.Store(rec)
	if !errors.Is(err, ErrAlreadyStored) {
		t.Fatalf("duplicate store: got %v, want ErrAlreadyStored", err)
	}
	if got := env.Acct.Bytes(ChanServerOwner); got != bytesAfterStore {
		t.Fatalf("rejected duplicate inflated the tally: %d -> %d bytes", bytesAfterStore, got)
	}
	if got := env.Acct.Messages(ChanServerOwner); got != msgsAfterStore {
		t.Fatalf("rejected duplicate counted a message: %d -> %d", msgsAfterStore, got)
	}
}

// TestReEncryptFailureNotMetered: the all-or-nothing contract extends to
// accounting — a rejected re-encryption (unknown owner here) meters nothing.
func TestReEncryptFailureNotMetered(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uk, uis := revocationInputs(t, env, owner)

	before := env.Acct.Bytes(ChanServerOwner)
	items := []ReEncryptItem{{UK: uk, UIs: uis}}
	if _, err := env.Server.ReEncrypt("ghost", items); !errors.Is(err, ErrUnknownOwner) {
		t.Fatalf("got %v, want ErrUnknownOwner", err)
	}
	if got := env.Acct.Bytes(ChanServerOwner); got != before {
		t.Fatalf("failed re-encrypt metered %d bytes", got-before)
	}

	// The same inputs succeed against the real owner and are metered.
	if _, err := env.Server.ReEncrypt(owner.Owner.ID(), items); err != nil {
		t.Fatal(err)
	}
	if got := env.Acct.Bytes(ChanServerOwner); got <= before {
		t.Fatal("successful re-encrypt not metered")
	}
}

// TestReEncryptBatchRejectsOverlap: items of one batch must target disjoint
// ciphertexts — overlapping slots cannot be fused into one run.
func TestReEncryptBatchRejectsOverlap(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uk, uis := revocationInputs(t, env, owner)

	items := []ReEncryptItem{{UK: uk, UIs: uis}, {UK: uk, UIs: uis}}
	if _, err := env.Server.ReEncrypt(owner.Owner.ID(), items); !errors.Is(err, ErrDuplicateUpdateInfo) {
		t.Fatalf("got %v, want ErrDuplicateUpdateInfo", err)
	}

	// Disjoint split of the same sets fuses fine and matches the per-item
	// accounting.
	var a, b map[string]*core.UpdateInfo
	a, b = make(map[string]*core.UpdateInfo), make(map[string]*core.UpdateInfo)
	i := 0
	for id, ui := range uis {
		if i%2 == 0 {
			a[id] = ui
		} else {
			b[id] = ui
		}
		i++
	}
	report, err := env.Server.ReEncrypt(owner.Owner.ID(), []ReEncryptItem{{UK: uk, UIs: a}, {UK: uk, UIs: b}})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ciphertexts != len(uis) {
		t.Fatalf("batched %d ciphertexts, want %d", report.Ciphertexts, len(uis))
	}
	if got := report.Items[0].Ciphertexts + report.Items[1].Ciphertexts; got != report.Ciphertexts {
		t.Fatalf("per-item counts sum to %d, total %d", got, report.Ciphertexts)
	}
	if report.Engine.Jobs == 0 {
		t.Fatalf("fused run reports zero engine jobs: %+v", report.Engine)
	}

	m := env.Server.Metrics()
	if m.ReEncryptRequests != 1 || m.ReEncryptItems != 2 {
		t.Fatalf("metrics requests/items = %d/%d, want 1/2", m.ReEncryptRequests, m.ReEncryptItems)
	}
	if m.ReEncryptedCiphertexts != uint64(report.Ciphertexts) {
		t.Fatalf("metrics ciphertexts %d, want %d", m.ReEncryptedCiphertexts, report.Ciphertexts)
	}
	if m.Engine.Jobs != report.Engine.Jobs {
		t.Fatalf("cumulative engine jobs %d, per-request %d", m.Engine.Jobs, report.Engine.Jobs)
	}
}
