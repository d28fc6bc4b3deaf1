package engine_test

import (
	"crypto/rand"
	"testing"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// TestRetiredBasesLeaveCaches runs Section V-C revocations end to end — the
// owner's update information and public-key update through core, the
// re-encryption through cloud.Server.ReEncrypt — and checks that the
// prepared-point and exp-table caches do not keep an entry per revocation:
// each UK1 is forgotten when its request ends and each replaced PK_x when
// the owner moves past it.
func TestRetiredBasesLeaveCaches(t *testing.T) {
	env := cloud.NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	aa, err := env.AddAuthority("rt", []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("rt-owner")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r1", "r2"} {
		comps := []cloud.UploadComponent{{Label: "c", Data: []byte(id), Policy: "rt:x AND rt:y"}}
		if _, err := owner.Upload(id, comps); err != nil {
			t.Fatal(err)
		}
	}

	prep, exp := engine.PreparedCacheLen(), engine.ExpCacheLen()
	for i := 0; i < 3; i++ {
		fromV, _, err := aa.AA.Rekey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		uk, err := aa.AA.UpdateKeyFor(owner.Owner.SecretKeyForAAs(), fromV)
		if err != nil {
			t.Fatal(err)
		}
		uis, err := owner.Owner.RevocationUpdate(uk, env.Server.CiphertextsOf("rt-owner"))
		if err != nil {
			t.Fatal(err)
		}
		item := cloud.ReEncryptItem{UK: uk, UIs: make(map[string]*core.UpdateInfo)}
		for _, ui := range uis {
			item.UIs[ui.CiphertextID] = ui
		}
		if _, err := env.Server.ReEncrypt("rt-owner", []cloud.ReEncryptItem{item}); err != nil {
			t.Fatal(err)
		}

		// Preparing UK1 again must miss, whatever else the cache holds.
		_, m0 := engine.PreparedCacheStats()
		engine.Prepared(uk.UK1)
		engine.Forget(uk.UK1)
		if _, m1 := engine.PreparedCacheStats(); m1 != m0+1 {
			t.Fatalf("revocation %d: UK1 still prepared after its re-encryption", i)
		}
	}
	if n := engine.PreparedCacheLen(); n > prep {
		t.Fatalf("prepared-point cache grew from %d to %d entries over 3 revocations", prep, n)
	}
	if n := engine.ExpCacheLen(); n > exp {
		t.Fatalf("exp-table cache grew from %d to %d entries over 3 revocations", exp, n)
	}
}
