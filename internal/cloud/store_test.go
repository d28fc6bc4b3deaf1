package cloud

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
	"maacs/internal/wire"
)

// storeFixture builds real records (CP-ABE ciphertexts included) without
// touching the store under test: an in-memory env produces them, the test
// clones them in.
func storeFixture(t *testing.T, n int) (*core.System, []*Record) {
	t.Helper()
	sys := core.NewSystem(pairing.Test())
	env := NewEnvWithStore(sys, rand.Reader, NewMemStore())
	if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("owner-1")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, n)
	for i := range recs {
		id := fmt.Sprintf("rec-%02d", i)
		rec, err := owner.Upload(id, []UploadComponent{
			{Label: "d", Data: []byte("payload " + id), Policy: "a:x"},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec.snapshot()
	}
	return sys, recs
}

// sameRecords compares two stores' contents by wire encoding — ID, owner,
// labels, ciphertext bytes and sealed payloads all have to match.
func sameRecords(t *testing.T, want, got []*Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		var ew, eg wire.Encoder
		encodeRecord(&ew, want[i])
		encodeRecord(&eg, got[i])
		if !bytes.Equal(ew.Bytes(), eg.Bytes()) {
			t.Fatalf("record %d (%q) differs after recovery", i, want[i].ID)
		}
	}
}

// TestStoreBackendsConformance runs the Store contract over every backend:
// duplicate rejection, the delete owner check, sorted listings, owner scans,
// conditional re-encryption commits (a stale expectation or an index outside
// the record conflicts), and the FileStore bulk loader's refusal to
// overwrite.
func TestStoreBackendsConformance(t *testing.T) {
	sys, recs := storeFixture(t, 4)
	backends := map[string]func(t *testing.T) Store{
		"mem":  func(*testing.T) Store { return NewMemStore() },
		"file": func(t *testing.T) Store { return mustOpenFileStore(t, sys, t.TempDir()) },
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			defer st.Close()
			for _, rec := range recs[:3] {
				if err := st.Put(rec.snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Put(recs[0].snapshot()); !errors.Is(err, ErrAlreadyStored) {
				t.Fatalf("duplicate put: got %v, want ErrAlreadyStored", err)
			}
			if got := st.Records(); len(got) != 3 || got[0].ID != "rec-00" || got[2].ID != "rec-02" {
				t.Fatalf("records %v", got)
			}
			if _, ok := st.Get("rec-01"); !ok {
				t.Fatal("rec-01 missing")
			}
			if _, ok := st.Get("ghost"); ok {
				t.Fatal("phantom record")
			}

			var scanned []string
			st.OwnerScan("owner-1", func(r *Record) bool {
				scanned = append(scanned, r.ID)
				return true
			})
			if len(scanned) != 3 || scanned[0] != "rec-00" {
				t.Fatalf("owner scan %v", scanned)
			}
			st.OwnerScan("nobody", func(*Record) bool { t.Fatal("scanned wrong owner"); return false })

			// Conditional commit: swapping against the live pointer succeeds,
			// a stale expectation conflicts and changes nothing.
			live, _ := st.Get("rec-00")
			oldCT := live.Components[0].CT
			newCT := oldCT.Clone()
			if err := st.ReplaceIfUnchanged("owner-1", []CTSwap{
				{RecordID: "rec-00", Index: 0, Expect: oldCT, New: newCT},
			}); err != nil {
				t.Fatal(err)
			}
			after, _ := st.Get("rec-00")
			if after.Components[0].CT != newCT {
				t.Fatal("swap not applied")
			}
			if live.Components[0].CT != oldCT {
				t.Fatal("swap mutated a handed-out record")
			}
			err := st.ReplaceIfUnchanged("owner-1", []CTSwap{
				{RecordID: "rec-00", Index: 0, Expect: oldCT, New: oldCT.Clone()},
			})
			if !errors.Is(err, ErrReEncryptConflict) {
				t.Fatalf("stale swap: got %v, want ErrReEncryptConflict", err)
			}
			for _, idx := range []int{-1, len(after.Components)} {
				err := st.ReplaceIfUnchanged("owner-1", []CTSwap{
					{RecordID: "rec-00", Index: idx, Expect: newCT, New: newCT.Clone()},
				})
				if !errors.Is(err, ErrReEncryptConflict) {
					t.Fatalf("swap at index %d: got %v, want ErrReEncryptConflict", idx, err)
				}
			}
			if cur, _ := st.Get("rec-00"); cur.Components[0].CT != newCT {
				t.Fatal("conflicting swap changed state")
			}

			// Delete enforces ownership; FileStore.Restore refuses overwrites.
			if _, err := st.Delete("rec-01", "impostor"); err == nil {
				t.Fatal("wrong owner deleted")
			}
			if _, err := st.Delete("rec-01", "owner-1"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Delete("rec-01", "owner-1"); !errors.Is(err, ErrRecordNotFound) {
				t.Fatalf("double delete: got %v", err)
			}
			rest := []*Record{recs[1].snapshot(), recs[3].snapshot()}
			if fs, ok := st.(*FileStore); ok {
				if err := fs.Restore([]*Record{recs[3].snapshot(), recs[0].snapshot()}); err == nil {
					t.Fatal("restore overwrote rec-00")
				}
				if _, ok := st.Get("rec-03"); ok {
					t.Fatal("refused restore inserted part of the batch")
				}
				if err := fs.Restore(rest); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, rec := range rest {
					if err := st.Put(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := len(st.Records()); got != 4 {
				t.Fatalf("len after reload %d, want 4", got)
			}

			info := st.Info()
			if info.Records != 4 || info.Backend == "" {
				t.Fatalf("info %+v", info)
			}
		})
	}
}

func mustOpenFileStore(t *testing.T, sys *core.System, dir string) *FileStore {
	t.Helper()
	fs, err := OpenFileStore(sys, dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// lastWALSegmentPath returns the path of the highest-sequence WAL segment —
// the one the store appends to.
func lastWALSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 {
		t.Fatalf("no wal segments in %s", dir)
	}
	return filepath.Join(dir, walSegmentName(seqs[len(seqs)-1]))
}

// TestFileStoreReopenServesCommitted is the restart guarantee: everything
// committed before the store goes away — uploads, a delete, a re-encryption
// commit — is served verbatim by a store reopened on the same directory.
func TestFileStoreReopenServesCommitted(t *testing.T) {
	sys, recs := storeFixture(t, 4)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	for _, rec := range recs {
		if err := fs.Put(rec.snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Delete("rec-02", "owner-1"); err != nil {
		t.Fatal(err)
	}
	live, _ := fs.Get("rec-00")
	if err := fs.ReplaceIfUnchanged("owner-1", []CTSwap{
		{RecordID: "rec-00", Index: 0, Expect: live.Components[0].CT, New: live.Components[0].CT.Clone()},
	}); err != nil {
		t.Fatal(err)
	}
	want := fs.Records()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(recs[0].snapshot()); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("put after close: got %v, want ErrStoreClosed", err)
	}

	re := mustOpenFileStore(t, sys, dir)
	defer re.Close()
	sameRecords(t, want, re.Records())
}

// TestFileStoreCrashRecovery simulates a kill mid-WAL-append: a torn tail
// entry (header only, short payload, or payload with a bad checksum) must be
// discarded on reopen, recovering the store to the last complete record, and
// the truncated log must accept new appends.
func TestFileStoreCrashRecovery(t *testing.T) {
	sys, recs := storeFixture(t, 3)
	tails := map[string][]byte{
		// Length claims 1000 bytes, almost none follow.
		"torn-payload": {0xe8, 0x03, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x01, 0x02, 0x03},
		// Fewer than 8 bytes: not even a complete frame header.
		"torn-header": {0x10, 0x00, 0x00},
		// Complete frame whose checksum does not match its payload — the
		// payload bytes landed partially before the crash.
		"bad-tail-crc": {0x04, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x01, 0x02, 0x03, 0x04},
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs := mustOpenFileStore(t, sys, dir)
			for _, rec := range recs {
				if err := fs.Put(rec.snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			want := fs.Records()
			// Crash: the store is abandoned without Close; the next append
			// died partway through on the active (highest) segment.
			walPath := lastWALSegmentPath(t, dir)
			f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			sizeBefore, _ := os.Stat(walPath)

			re := mustOpenFileStore(t, sys, dir)
			defer re.Close()
			sameRecords(t, want, re.Records())
			// The torn tail is gone from disk and the log keeps working.
			sizeAfter, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if sizeAfter.Size() != sizeBefore.Size()-int64(len(tail)) {
				t.Fatalf("wal %d bytes after recovery, want %d",
					sizeAfter.Size(), sizeBefore.Size()-int64(len(tail)))
			}
			extra := &Record{ID: "rec-99", OwnerID: "owner-1",
				Components: recs[0].snapshot().Components}
			if err := re.Put(extra); err != nil {
				t.Fatal(err)
			}
			re.Close()
			re2 := mustOpenFileStore(t, sys, dir)
			defer re2.Close()
			if _, ok := re2.Get("rec-99"); !ok {
				t.Fatal("post-recovery append lost")
			}
		})
	}
}

// TestFileStoreRejectsInteriorCorruption: a checksum failure before the tail
// is real corruption, not a torn append — silently dropping interior entries
// could resurrect deleted records, so Open must refuse.
func TestFileStoreRejectsInteriorCorruption(t *testing.T) {
	sys, recs := storeFixture(t, 2)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	for _, rec := range recs {
		if err := fs.Put(rec.snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	fs.Close()

	walPath := lastWALSegmentPath(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff // flip a byte inside the first entry's payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(sys, dir); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("got %v, want ErrWALCorrupt", err)
	}
}

// TestFileStoreCompaction: compaction folds the WAL segments into the
// snapshot file and deletes them; a reopen serves the same records from the
// compacted state. Background compaction (threshold 1 wakes the compactor on
// every commit) runs concurrently; the explicit Compact makes the final
// state deterministic — either way every sealed segment must be folded.
func TestFileStoreCompaction(t *testing.T) {
	sys, recs := storeFixture(t, 4)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	fs.SetCompactThreshold(1) // every committed write wakes the compactor
	for _, rec := range recs {
		if err := fs.Put(rec.snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Delete("rec-01", "owner-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Compact(); err != nil {
		t.Fatal(err)
	}
	info := fs.Info()
	if info.WALBytes != 0 {
		t.Fatalf("wal %d bytes after compaction, want 0", info.WALBytes)
	}
	if info.WALSegments != 1 {
		t.Fatalf("%d wal segments after compaction, want 1 (the empty active one)", info.WALSegments)
	}
	if info.Compactions == 0 {
		t.Fatal("compaction counter did not advance")
	}
	if info.CompactErr != "" {
		t.Fatalf("unexpected compaction error: %s", info.CompactErr)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatalf("no snapshot file: %v", err)
	}
	want := fs.Records()
	fs.Close()

	re := mustOpenFileStore(t, sys, dir)
	defer re.Close()
	sameRecords(t, want, re.Records())
	if n := len(re.Records()); n != 3 {
		t.Fatalf("len %d, want 3 (delete must survive compaction)", n)
	}
}

// TestFileServerRestartMidWorkload is the acceptance check at server level:
// a FileStore server restarted mid-workload serves every previously
// committed record — including re-encrypted ones — to the same user.
func TestFileServerRestartMidWorkload(t *testing.T) {
	sys := core.NewSystem(pairing.Test())
	dir := t.TempDir()
	env := NewEnvWithStore(sys, rand.Reader, mustOpenFileStore(t, sys, dir))
	a, err := env.AddAuthority("a", []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("o")
	if err != nil {
		t.Fatal(err)
	}
	user := addUser(t, env, "u", map[string][]string{"a": {"x", "y"}})
	evictee := addUser(t, env, "evictee", map[string][]string{"a": {"x"}})
	_ = evictee
	for i := 0; i < 3; i++ {
		if _, err := owner.Upload(fmt.Sprintf("r%d", i), []UploadComponent{
			{Label: "d", Data: []byte(fmt.Sprintf("v%d", i)), Policy: "a:x"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A revocation re-encrypts every stored ciphertext through the WAL.
	if _, err := a.RevokeAttribute("evictee", "x"); err != nil {
		t.Fatal(err)
	}
	if err := env.Server.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same directory. The surviving user's
	// (version-updated) keys still decrypt the re-encrypted records.
	restarted := NewServerWithStore(sys, NewAccounting(), mustOpenFileStore(t, sys, dir))
	defer restarted.Close()
	if got := recordCount(restarted); got != 3 {
		t.Fatalf("restarted server has %d records, want 3", got)
	}
	for i := 0; i < 3; i++ {
		rec, err := fetchRecord(restarted, fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		el, err := core.Decrypt(sys, rec.Components[0].CT, user.PK, user.keysFor("o"))
		if err != nil {
			t.Fatalf("r%d: %v", i, err)
		}
		if el == nil {
			t.Fatalf("r%d: nil plaintext element", i)
		}
	}
	info := restarted.StoreInfo()
	if info.Backend != "file" || info.Records != 3 {
		t.Fatalf("restarted store info %+v", info)
	}
}

// mixedTrafficClient is the part of the server API TestMultiOwnerMixedRace
// drives, bound to one transport.
type mixedTrafficClient struct {
	name           string
	store          func(rec *Record) error
	fetch          func(recordID, userID string) error
	fetchComponent func(recordID, label, userID string) error
	delete         func(recordID, ownerID string) error
	reencrypt      func(ownerID string, items []ReEncryptItem) error
}

// mixedTrafficClients binds srv in-process, over net/rpc and over the HTTP
// gateway.
func mixedTrafficClients(t *testing.T, sys *core.System, srv *Server) []mixedTrafficClient {
	t.Helper()
	remote := remoteFor(t, sys, srv)
	ts := httptest.NewServer(NewHTTPHandler(sys, srv))
	t.Cleanup(ts.Close)
	return []mixedTrafficClient{{
		name:  "in-process",
		store: srv.Store,
		fetch: func(id, user string) error {
			_, _, err := srv.FetchWire(id, "", user)
			return err
		},
		fetchComponent: func(id, label, user string) error {
			_, _, err := srv.FetchWire(id, label, user)
			return err
		},
		delete: func(id, owner string) error {
			_, err := srv.Delete(id, owner)
			return err
		},
		reencrypt: func(owner string, items []ReEncryptItem) error {
			_, err := srv.ReEncrypt(owner, items)
			return err
		},
	}, {
		name:  "rpc",
		store: remote.Store,
		fetch: func(id, user string) error {
			_, err := remote.FetchAs(id, user)
			return err
		},
		fetchComponent: func(id, label, user string) error {
			_, err := remote.FetchComponentAs(id, label, user)
			return err
		},
		delete: remote.Delete,
		reencrypt: func(owner string, items []ReEncryptItem) error {
			_, err := remote.ReEncrypt(owner, items)
			return err
		},
	}, {
		name: "http",
		store: func(rec *Record) error {
			return httpCall(http.MethodPost, ts.URL+"/records", toHTTPRecord(rec))
		},
		fetch: func(id, user string) error {
			return httpCall(http.MethodGet, ts.URL+"/records/"+id+"?user="+user, nil)
		},
		fetchComponent: func(id, label, user string) error {
			return httpCall(http.MethodGet, ts.URL+"/records/"+id+"/"+label+"?user="+user, nil)
		},
		delete: func(id, owner string) error {
			return httpCall(http.MethodDelete, ts.URL+"/records/"+id+"?owner="+owner, nil)
		},
		reencrypt: func(owner string, items []ReEncryptItem) error {
			return httpCall(http.MethodPost, ts.URL+"/owners/"+owner+"/reencrypt/batch", httpReEncryptBody(items))
		},
	}}
}

// TestMultiOwnerMixedRace hammers one server with concurrent fetch,
// fetch-component, store, delete and re-encrypt traffic across owners (run
// under -race by scripts/check.sh, on whichever backend MAACS_STORE
// selects). Owner i sends its traffic in-process, over net/rpc or over HTTP
// (i mod 3), so every transport runs beside the others. Every owner has its
// own authority, so the goroutines' revocations are independent; the
// cross-owner fetches must stay safe while neighbours commit and delete.
func TestMultiOwnerMixedRace(t *testing.T) {
	sys := core.NewSystem(pairing.Test())
	env := NewEnv(sys, rand.Reader)
	defer env.Server.Close()
	clients := mixedTrafficClients(t, sys, env.Server)
	const owners = 6
	const rounds = 3
	ownerClients := make([]*OwnerClient, owners)
	for i := 0; i < owners; i++ {
		aid := fmt.Sprintf("a%d", i)
		if _, err := env.AddAuthority(aid, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < owners; i++ {
		oc, err := env.AddOwner(fmt.Sprintf("o%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ownerClients[i] = oc
		if _, err := oc.Upload(fmt.Sprintf("seed-o%d", i), []UploadComponent{
			{Label: "d", Data: []byte("seed"), Policy: fmt.Sprintf("a%d:x", i)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, owners) // each goroutine sends at most once
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oc, c := ownerClients[i], clients[i%len(clients)]
			ownerID, user := oc.Owner.ID(), fmt.Sprintf("u%d", i)
			aa, _ := env.Authority(fmt.Sprintf("a%d", i))
			var prev *Record
			for r := 0; r < rounds; r++ {
				fail := func(op string, err error) {
					errc <- fmt.Errorf("owner %d over %s, round %d: %s: %w", i, c.name, r, op, err)
				}
				// Cross-owner reads while neighbours re-encrypt and delete.
				other := fmt.Sprintf("seed-o%d", (i+1)%owners)
				if err := c.fetch(other, user); err != nil {
					fail("fetch", err)
					return
				}
				if err := c.fetchComponent(other, "d", user); err != nil {
					fail("fetch component", err)
					return
				}
				rec, err := sealRecord(env, oc, fmt.Sprintf("o%d-r%d", i, r), []UploadComponent{
					{Label: "d", Data: []byte("x"), Policy: fmt.Sprintf("a%d:x", i)},
				})
				if err != nil {
					fail("seal", err)
					return
				}
				if err := c.store(rec); err != nil {
					fail("store", err)
					return
				}
				if prev != nil {
					if err := c.delete(prev.ID, ownerID); err != nil {
						fail("delete", err)
						return
					}
					for _, comp := range prev.Components {
						oc.Owner.ForgetCiphertext(comp.CT.ID)
					}
				}
				prev = rec
				// Own-corpus re-encryption: rekey this owner's authority and
				// push the update through the proxy.
				fromV, _, err := aa.AA.Rekey(rand.Reader)
				if err != nil {
					fail("rekey", err)
					return
				}
				uk, err := aa.AA.UpdateKeyFor(oc.Owner.SecretKeyForAAs(), fromV)
				if err != nil {
					fail("update key", err)
					return
				}
				cts := env.Server.CiphertextsOf(ownerID)
				uiList, err := oc.Owner.RevocationUpdate(uk, cts)
				if err != nil {
					fail("update info", err)
					return
				}
				uis := make(map[string]*core.UpdateInfo)
				for _, ui := range uiList {
					if ui != nil {
						uis[ui.CiphertextID] = ui
					}
				}
				if len(uis) == 0 {
					fail("update info", errors.New("none produced"))
					return
				}
				if err := c.reencrypt(ownerID, []ReEncryptItem{{UK: uk, UIs: uis}}); err != nil {
					fail("re-encrypt", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Each owner keeps its seed and its last round's upload; every earlier
	// upload was deleted the round after.
	want := owners * 2
	if got := recordCount(env.Server); got != want {
		t.Fatalf("stored %d records, want %d", got, want)
	}
	info := env.Server.StoreInfo()
	if info.Records != want {
		t.Fatalf("store info %+v", info)
	}
}
