package cloud

import (
	"bytes"
	"crypto/rand"
	"strings"
	"testing"

	"maacs/internal/core"
	"maacs/internal/hybrid"
	"maacs/internal/pairing"
)

// rpcFixture runs a real cloud server behind TCP on loopback and gives the
// test a connected client.
func rpcFixture(t *testing.T) (*Env, *RemoteServer) {
	t.Helper()
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	return env, remoteFor(t, env.Sys, env.Server)
}

// buildRecord produces an uploadable record without going through the
// in-process server.
func buildRecord(t *testing.T, env *Env, owner *OwnerClient, id string, comps []UploadComponent) *Record {
	t.Helper()
	rec, err := sealRecord(env, owner, id, comps)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// sealRecord is buildRecord for goroutines: it returns its error instead of
// failing the test.
func sealRecord(env *Env, owner *OwnerClient, id string, comps []UploadComponent) (*Record, error) {
	rec := &Record{ID: id, OwnerID: owner.Owner.ID()}
	for _, c := range comps {
		key, err := hybrid.NewContentKey(env.Sys.Params, rand.Reader)
		if err != nil {
			return nil, err
		}
		sealed, err := key.Seal(c.Data, rand.Reader)
		if err != nil {
			return nil, err
		}
		ct, err := owner.Owner.Encrypt(key.Element, c.Policy, rand.Reader)
		if err != nil {
			return nil, err
		}
		rec.Components = append(rec.Components, StoredComponent{Label: c.Label, CT: ct, Sealed: sealed})
	}
	return rec, nil
}

func TestRPCStoreFetchRoundTrip(t *testing.T) {
	env, remote := rpcFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	alice := addUser(t, env, "alice", map[string][]string{"med": {"doctor"}})

	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("remote data"), Policy: "med:doctor"},
	})
	if err := remote.Store(rec); err != nil {
		t.Fatal(err)
	}

	// Fetch the whole record and decrypt client-side.
	got, err := remote.Fetch("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.OwnerID != "hospital" || len(got.Components) != 1 {
		t.Fatalf("bad record: %+v", got)
	}
	el, err := core.Decrypt(env.Sys, got.Components[0].CT, alice.PK, alice.keysFor("hospital"))
	if err != nil {
		t.Fatal(err)
	}
	key := &hybrid.ContentKey{Element: el}
	data, err := key.Open(got.Components[0].Sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("remote data")) {
		t.Fatalf("got %q", data)
	}

	// Fetch a single component by label.
	comp, err := remote.FetchComponent("r1", "x")
	if err != nil {
		t.Fatal(err)
	}
	if comp.Label != "x" {
		t.Fatalf("component label %q", comp.Label)
	}
}

func TestRPCErrorsPropagate(t *testing.T) {
	_, remote := rpcFixture(t)
	if _, err := remote.Fetch("ghost"); err == nil || !strings.Contains(err.Error(), "record not found") {
		t.Fatalf("got %v, want record-not-found error", err)
	}
}

func TestRPCRevocationEndToEnd(t *testing.T) {
	env, remote := rpcFixture(t)
	med, err := env.AddAuthority("med", []string{"doctor"})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	alice := addUser(t, env, "alice", map[string][]string{"med": {"doctor"}})
	bob := addUser(t, env, "bob", map[string][]string{"med": {"doctor"}})

	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("sensitive"), Policy: "med:doctor"},
	})
	if err := remote.Store(rec); err != nil {
		t.Fatal(err)
	}

	// Manual revocation against the REMOTE server: rekey, fetch the owner's
	// ciphertexts over RPC, build update info, submit re-encryption.
	fromV, _, err := med.AA.Rekey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := med.AA.UpdateKeyFor(owner.Owner.SecretKeyForAAs(), fromV)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := remote.CiphertextsOf("hospital")
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 1 {
		t.Fatalf("remote lists %d ciphertexts, want 1", len(cts))
	}
	uis, err := owner.Owner.RevocationUpdate(uk, cts)
	if err != nil {
		t.Fatal(err)
	}
	// The same ciphertext listed twice inside one item is rejected before
	// anything runs, so the well-formed request below still applies.
	raw := uis[0].Marshal()
	dup := &RPCReEncryptArgs{OwnerID: "hospital", Items: []RPCReEncryptItem{
		{UpdateKey: uk.Marshal(), UpdateInfos: [][]byte{raw, raw}},
	}}
	if err := remote.client.Call("CloudServer.ReEncrypt", dup, &RPCReEncryptReply{}); err == nil ||
		!strings.Contains(err.Error(), ErrDuplicateUpdateInfo.Error()) {
		t.Fatalf("ciphertext listed twice: got %v, want %v", err, ErrDuplicateUpdateInfo)
	}
	uiMap := map[string]*core.UpdateInfo{uis[0].CiphertextID: uis[0]}
	reencReport, err := remote.ReEncrypt("hospital", []ReEncryptItem{{UK: uk, UIs: uiMap}})
	if err != nil {
		t.Fatal(err)
	}
	if reencReport.Ciphertexts != 1 || reencReport.Rows != 1 {
		t.Fatalf("re-encrypted %d cts/%d rows, want 1/1", reencReport.Ciphertexts, reencReport.Rows)
	}
	if reencReport.Engine.Jobs == 0 {
		t.Fatalf("remote re-encrypt reports zero engine jobs: %+v", reencReport.Engine)
	}

	// Bob updates his key; alice (revoked, no new key issued) is locked out.
	newBobKey, err := core.UpdateSecretKey(bob.keysFor("hospital")["med"], uk)
	if err != nil {
		t.Fatal(err)
	}
	bob.installKey(newBobKey)

	comp, err := remote.FetchComponent("r1", "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Decrypt(env.Sys, comp.CT, alice.PK, alice.keysFor("hospital")); err == nil {
		t.Fatal("stale key decrypted re-encrypted remote data")
	}
	el, err := core.Decrypt(env.Sys, comp.CT, bob.PK, bob.keysFor("hospital"))
	if err != nil {
		t.Fatal(err)
	}
	key := &hybrid.ContentKey{Element: el}
	if data, err := key.Open(comp.Sealed); err != nil || !bytes.Equal(data, []byte("sensitive")) {
		t.Fatalf("updated user cannot read: %v", err)
	}
}

func TestRPCConcurrentClients(t *testing.T) {
	env, _ := rpcFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rec := buildRecord(t, env, owner, "shared", []UploadComponent{
		{Label: "x", Data: []byte("v"), Policy: "med:doctor"},
	})
	if err := env.Server.Store(rec); err != nil {
		t.Fatal(err)
	}
	addr := dialAddr(t, env)
	const clients = 8
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			remote, err := DialServer(env.Sys, addr)
			if err != nil {
				errc <- err
				return
			}
			defer remote.Close()
			for j := 0; j < 5; j++ {
				if _, err := remote.Fetch("shared"); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// dialAddr spins a second listener for the concurrency test.
func dialAddr(t *testing.T, env *Env) string {
	t.Helper()
	l, addr, err := ServeRPC(env.Sys, env.Server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return addr
}
