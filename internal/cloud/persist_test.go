package cloud

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
	"maacs/internal/wire"
)

// TestSnapshotRestoreRoundTrip: records bulk-loaded into a FileStore and
// folded into snapshot.maacs come back from that file alone. A server over
// the reopened directory serves them and the same user still decrypts (only
// ciphertexts moved; keys never left the clients), and the file is
// deterministic: the same records loaded in another order write the same
// bytes.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	doctor := addUser(t, env, "dr-x", map[string][]string{
		"med": {"doctor"}, "trial": {"researcher"},
	})
	recs := env.Server.store.Records()
	snapshotOf := func(recs []*Record) (dir string, data []byte) {
		dir = t.TempDir()
		fs := mustOpenFileStore(t, env.Sys, dir)
		if err := fs.Restore(recs); err != nil {
			t.Fatal(err)
		}
		if err := fs.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
		if err != nil {
			t.Fatal(err)
		}
		return dir, data
	}
	dir, data := snapshotOf(recs)
	if _, again := snapshotOf([]*Record{recs[1], recs[0]}); !bytes.Equal(data, again) {
		t.Fatal("snapshot not deterministic")
	}

	restored := NewServerWithStore(env.Sys, NewAccounting(), mustOpenFileStore(t, env.Sys, dir))
	defer restored.Close()
	if info := restored.StoreInfo(); info.Records != 2 || info.WALBytes != 0 {
		t.Fatalf("reopened store %+v, want 2 records and an empty WAL", info)
	}
	_, raw, err := restored.FetchWire("patient-7", "diagnosis", "dr-x")
	if err != nil {
		t.Fatal(err)
	}
	comps, err := decodeComponents(env.Sys, "patient-7", raw)
	if err != nil {
		t.Fatal(err)
	}
	el, err := core.Decrypt(env.Sys, comps[0].CT, doctor.PK, doctor.keysFor("hospital"))
	if err != nil {
		t.Fatal(err)
	}
	if el == nil {
		t.Fatal("nil plaintext element")
	}
}

// TestOpenFileStoreRejectsDamagedSnapshot: snapshot.maacs is read only when
// a FileStore opens, so a damaged file must fail the open instead of serving
// a partial or forged store. The damage: a foreign magic, a truncated record,
// trailing bytes, and a ciphertext whose C' is a curve point outside the
// order-r subgroup.
func TestOpenFileStoreRejectsDamagedSnapshot(t *testing.T) {
	env, owner := hospitalEnv(t)
	rec := uploadPatientRecord(t, owner)
	var e wire.Encoder
	e.String(snapshotMagic)
	e.Int(1)
	encodeRecord(&e, rec)
	good := e.Bytes()

	cPrime := rec.Components[0].CT.CPrime.Marshal()
	offSubgroup := nonSubgroupG(env.Sys.Params)
	if _, err := env.Sys.Params.UnmarshalGReference(offSubgroup); err == nil ||
		!strings.Contains(err.Error(), "subgroup") {
		t.Fatalf("reference decoder on the off-subgroup point: %v", err)
	}
	cases := map[string][]byte{
		"foreign magic":    bytes.Replace(good, []byte(snapshotMagic), []byte("maacs-snapshot-v9"), 1),
		"truncated record": good[:len(good)-8],
		"trailing bytes":   append(good[:len(good):len(good)], 0),
		"non-subgroup G":   bytes.Replace(good, cPrime, offSubgroup, 1),
	}
	if !bytes.Contains(good, cPrime) {
		t.Fatal("C' encoding not found in the snapshot")
	}
	open := func(data []byte) error {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(env.Sys, dir)
		if err == nil {
			fs.Close()
		}
		return err
	}
	if err := open(good); err != nil {
		t.Fatalf("intact snapshot refused: %v", err)
	}
	for name, data := range cases {
		err := open(data)
		if err == nil {
			t.Errorf("%s: damaged snapshot opened", name)
		} else if name == "non-subgroup G" && !strings.Contains(err.Error(), "subgroup") {
			t.Errorf("%s: refused for another reason: %v", name, err)
		}
	}
}

// nonSubgroupG encodes, as a G element with the even-y flag, the curve point
// y² = x³ + x over the first x = 1, 2, … that has a square root mod q — the
// point internal/pairing's nonSubgroupPoint starts from. With a cofactor
// far above 1 it lies outside the order-r subgroup; callers confirm that
// with UnmarshalGReference, whose affine r·P check is independent of the
// decoder under test.
func nonSubgroupG(p *pairing.Params) []byte {
	out := make([]byte, p.GByteLen())
	for x := big.NewInt(1); ; x.Add(x, big.NewInt(1)) {
		rhs := new(big.Int).Exp(x, big.NewInt(3), p.Q)
		rhs.Add(rhs, x).Mod(rhs, p.Q)
		if big.Jacobi(rhs, p.Q) == 1 {
			out[0] = 0x02
			x.FillBytes(out[1:])
			return out
		}
	}
}

func TestConcurrentUploadsAndDownloads(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("o")
	if err != nil {
		t.Fatal(err)
	}
	user := addUser(t, env, "u", map[string][]string{"a": {"x"}})

	const workers = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('A' + w))
			if _, err := owner.Upload("rec-"+id, []UploadComponent{
				{Label: "d", Data: []byte("v" + id), Policy: "a:x"},
			}); err != nil {
				errc <- err
				return
			}
			got, err := user.Download("rec-"+id, "d")
			if err != nil {
				errc <- err
				return
			}
			if string(got) != "v"+id {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := recordCount(env.Server); got != workers {
		t.Fatalf("stored %d records, want %d", got, workers)
	}
}
