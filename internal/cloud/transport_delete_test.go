package cloud

import (
	"crypto/rand"
	"encoding/base64"
	"errors"
	"net/http"
	"strings"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
	"maacs/internal/wire"
)

func TestRPCDelete(t *testing.T) {
	env, remote := rpcFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("v"), Policy: "med:doctor"},
	})
	if err := remote.Store(rec); err != nil {
		t.Fatal(err)
	}
	if err := remote.Delete("r1", "intruder"); err == nil {
		t.Fatal("foreign delete accepted over RPC")
	}
	if err := remote.Delete("r1", ""); err == nil {
		t.Fatal("owner-less delete accepted over RPC")
	}
	if err := remote.Delete("r1", "hospital"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.FetchAs("r1", ""); err == nil {
		t.Fatal("record still present after RPC delete")
	}
}

func TestHTTPDelete(t *testing.T) {
	env, ts := httpFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("v"), Policy: "med:doctor"},
	})
	resp := postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
	resp.Body.Close()

	doDelete := func(url string) int {
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := doDelete(ts.URL + "/records/r1"); code != http.StatusBadRequest {
		t.Fatalf("delete without owner: %d", code)
	}
	if code := doDelete(ts.URL + "/records/r1?owner=ghost"); code == http.StatusOK {
		t.Fatal("foreign delete accepted over HTTP")
	}
	if code := doDelete(ts.URL + "/records/r1?owner=hospital"); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	getResp, err := http.Get(ts.URL + "/records/r1")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("record still present after HTTP delete: %d", getResp.StatusCode)
	}
}

// TestUploadRequiresIDAndOwner: a record without an ID could never be
// fetched over HTTP, and one without an owner would match an owner-less
// delete, so both transports refuse them before anything is stored or
// metered.
func TestUploadRequiresIDAndOwner(t *testing.T) {
	t.Run("rpc", func(t *testing.T) {
		env, remote := rpcFixture(t)
		for _, rec := range unaddressableRecords(t, env) {
			if err := remote.Store(rec); err == nil {
				t.Fatalf("record %q of owner %q accepted over RPC", rec.ID, rec.OwnerID)
			}
		}
		assertNothingStored(t, env)
	})
	t.Run("http", func(t *testing.T) {
		env, ts := httpFixture(t)
		for _, rec := range unaddressableRecords(t, env) {
			resp := postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("record %q of owner %q: status %d, want 400", rec.ID, rec.OwnerID, resp.StatusCode)
			}
		}
		assertNothingStored(t, env)
	})
}

// TestUploadRejectsUnaddressableLabels: a component fetch returns the
// component its label names, and FetchWire reads an empty label as the whole
// record, so a record with an empty or a repeated label would hold a
// component no fetch can return on its own. Every upload path refuses both
// before anything is stored or metered.
func TestUploadRejectsUnaddressableLabels(t *testing.T) {
	comp := func(label string) UploadComponent {
		return UploadComponent{Label: label, Data: []byte("v"), Policy: "med:doctor"}
	}
	cases := map[string][]UploadComponent{
		"empty":    {comp("x"), comp("")},
		"repeated": {comp("x"), comp("y"), comp("x")},
	}
	owner := func(t *testing.T, env *Env) *OwnerClient {
		t.Helper()
		if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
			t.Fatal(err)
		}
		oc, err := env.AddOwner("hospital")
		if err != nil {
			t.Fatal(err)
		}
		return oc
	}
	t.Run("in-process", func(t *testing.T) {
		env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
		oc := owner(t, env)
		for name, comps := range cases {
			if _, err := oc.Upload("r-"+name, comps); err == nil {
				t.Fatalf("%s label accepted by Upload", name)
			}
		}
		assertNothingStored(t, env)
	})
	t.Run("rpc", func(t *testing.T) {
		env, remote := rpcFixture(t)
		oc := owner(t, env)
		for name, comps := range cases {
			if err := remote.Store(buildRecord(t, env, oc, "r-"+name, comps)); err == nil {
				t.Fatalf("%s label accepted over RPC", name)
			}
		}
		assertNothingStored(t, env)
	})
	t.Run("http", func(t *testing.T) {
		env, ts := httpFixture(t)
		oc := owner(t, env)
		for name, comps := range cases {
			resp := postJSON(t, ts.URL+"/records", toHTTPRecord(buildRecord(t, env, oc, "r-"+name, comps)))
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s label: status %d, want 400", name, resp.StatusCode)
			}
		}
		assertNothingStored(t, env)
	})
}

// TestUploadRejectsForeignCiphertext: a record stored as hospital that holds
// mallory's ciphertext would be among hospital's ciphertexts, and hospital's
// next revocation would fail on it in Owner.RevocationUpdate
// (core.ErrWrongOwner), after the authority had rekeyed and the holders' keys
// had moved on. Its record and component replies would also name different
// owners. Every upload path refuses such a record, whether the foreign
// ciphertext is its only one or sits beside hospital's own, before anything
// is stored or metered.
func TestUploadRejectsForeignCiphertext(t *testing.T) {
	records := func(t *testing.T, env *Env) map[string]*Record {
		t.Helper()
		if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
			t.Fatal(err)
		}
		sealed := make(map[string]*Record)
		for _, id := range []string{"hospital", "mallory"} {
			oc, err := env.AddOwner(id)
			if err != nil {
				t.Fatal(err)
			}
			sealed[id] = buildRecord(t, env, oc, "r", []UploadComponent{
				{Label: id, Data: []byte("v"), Policy: "med:doctor"},
			})
		}
		own, foreign := sealed["hospital"].Components[0], sealed["mallory"].Components[0]
		return map[string]*Record{
			"foreign": {ID: "r-foreign", OwnerID: "hospital", Components: []StoredComponent{foreign}},
			"mixed":   {ID: "r-mixed", OwnerID: "hospital", Components: []StoredComponent{own, foreign}},
		}
	}
	t.Run("in-process", func(t *testing.T) {
		env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
		for name, rec := range records(t, env) {
			if err := env.Server.Store(rec); !errors.Is(err, ErrForeignCiphertext) {
				t.Fatalf("%s record: got %v, want ErrForeignCiphertext", name, err)
			}
		}
		assertNothingStored(t, env)
	})
	t.Run("rpc", func(t *testing.T) {
		env, remote := rpcFixture(t)
		for name, rec := range records(t, env) {
			if err := remote.Store(rec); err == nil || !strings.Contains(err.Error(), ErrForeignCiphertext.Error()) {
				t.Fatalf("%s record over RPC: got %v, want %q", name, err, ErrForeignCiphertext)
			}
		}
		assertNothingStored(t, env)
	})
	t.Run("http", func(t *testing.T) {
		env, ts := httpFixture(t)
		for name, rec := range records(t, env) {
			resp := postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s record: status %d, want 400", name, resp.StatusCode)
			}
		}
		assertNothingStored(t, env)
	})
}

// TestUploadRejectsVersionMapMismatch: a ciphertext whose version map names
// an authority outside its policy, or one authority twice, is refused on
// both transports. Accepted, it would make a later revocation at that
// authority re-encrypt C while touching no row.
func TestUploadRejectsVersionMapMismatch(t *testing.T) {
	t.Run("rpc", func(t *testing.T) {
		env, remote := rpcFixture(t)
		rec, bad := versionMapMismatches(t, env)
		for i, raw := range bad {
			args := &RPCStoreArgs{RecordID: rec.ID, OwnerID: rec.OwnerID, Components: []RPCComponent{
				{Label: "x", CT: raw, Sealed: rec.Components[0].Sealed},
			}}
			if err := remote.client.Call("CloudServer.Store", args, &struct{}{}); err == nil {
				t.Fatalf("encoding %d accepted over RPC", i)
			}
		}
		assertNothingStored(t, env)
	})
	t.Run("http", func(t *testing.T) {
		env, ts := httpFixture(t)
		rec, bad := versionMapMismatches(t, env)
		for i, raw := range bad {
			in := toHTTPRecord(rec)
			in.Components[0].CT = base64.StdEncoding.EncodeToString(raw)
			resp := postJSON(t, ts.URL+"/records", in)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("encoding %d: status %d, want 400", i, resp.StatusCode)
			}
		}
		assertNothingStored(t, env)
	})
}

// versionMapMismatches builds a valid one-component record under a
// one-authority policy, plus two encodings of its ciphertext whose version
// entries read [med, uni] (an extra authority) and [med, med] (a duplicate).
func versionMapMismatches(t *testing.T, env *Env) (*Record, [][]byte) {
	t.Helper()
	for _, aid := range []string{"med", "uni"} {
		if _, err := env.AddAuthority(aid, []string{"doctor"}); err != nil {
			t.Fatal(err)
		}
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rec := buildRecord(t, env, owner, "r1", []UploadComponent{{Label: "x", Data: []byte("v"), Policy: "med:doctor"}})
	ct := rec.Components[0].CT
	var bad [][]byte
	for _, aids := range [][]string{{"med", "uni"}, {"med", "med"}} {
		var e wire.Encoder
		e.String(ct.ID)
		e.String(ct.OwnerID)
		e.String(ct.Policy)
		e.Int(len(aids))
		for _, aid := range aids {
			e.String(aid)
			e.Int(ct.Versions["med"])
		}
		e.Blob(ct.C.Marshal())
		e.Blob(ct.CPrime.Marshal())
		e.Int(len(ct.Rows))
		for _, row := range ct.Rows {
			e.Blob(row.Marshal())
		}
		bad = append(bad, e.Bytes())
	}
	return rec, bad
}

// unaddressableRecords builds two otherwise valid records: one with an empty
// ID and one with an empty owner.
func unaddressableRecords(t *testing.T, env *Env) []*Record {
	t.Helper()
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	comps := []UploadComponent{{Label: "x", Data: []byte("v"), Policy: "med:doctor"}}
	noID := buildRecord(t, env, owner, "", comps)
	noOwner := buildRecord(t, env, owner, "r1", comps)
	noOwner.OwnerID = ""
	return []*Record{noID, noOwner}
}

func assertNothingStored(t *testing.T, env *Env) {
	t.Helper()
	if n := recordCount(env.Server); n != 0 {
		t.Fatalf("stored %d records", n)
	}
	if n := env.Server.Metrics().StoreRequests; n != 0 {
		t.Fatalf("metered %d rejected uploads", n)
	}
	if b := env.Acct.Bytes(ChanServerOwner); b != 0 {
		t.Fatalf("metered %d bytes of rejected uploads", b)
	}
}
