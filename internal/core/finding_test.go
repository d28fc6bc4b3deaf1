package core

import (
	"maps"
	"math/big"
	"testing"

	"maacs/internal/pairing"
)

// Finding tests. Each test below runs an attack on the construction as this
// repository implements it (DESIGN §5) and asserts that the attack
// SUCCEEDS: they pin known weaknesses (SECURITY.md, item 1), so a change
// that stops one from reproducing fails here and must update that record.
//
// The common algebra: AA.KeyGen issues K_x = PK_UID^(α·H(x)) for every
// attribute x a user holds at one authority, with H: {0,1}* → Z_r public.
// All of one user's attribute keys at one authority are powers of one base,
// and the ratio of any two exponents, H(y)·H(x)⁻¹ mod r, is public. So
// K_y = K_x^(H(y)·H(x)⁻¹ mod r) for every attribute y of that authority,
// with no secret and no other user involved.

// deriveAttrKey computes K_to from K_from alone:
// K_from^(H(to)·H(from)⁻¹ mod r) = PK_UID^(α·H(to)).
func deriveAttrKey(p *pairing.Params, kFrom *pairing.G, from, to string) *pairing.G {
	e := new(big.Int).ModInverse(p.HashToScalar([]byte(from)), p.R)
	e.Mul(e, p.HashToScalar([]byte(to)))
	e.Mod(e, p.R)
	return kFrom.Exp(e)
}

// withDerivedKey returns a copy of sk that also holds attribute to, derived
// from the key it holds for from.
func withDerivedKey(p *pairing.Params, sk *SecretKey, from, to string) *SecretKey {
	out := *sk
	out.KAttr = maps.Clone(sk.KAttr)
	out.KAttr[to] = deriveAttrKey(p, sk.KAttr[from], from, to)
	return &out
}

// findingFixture is twoAuthorityFixture over params.
func findingFixture(t *testing.T, params *pairing.Params) *fixture {
	return newFixtureOn(t, params, map[string][]string{
		"med": {"doctor", "nurse", "surgeon"},
		"uni": {"researcher", "student", "professor"},
	})
}

// assertReads fails unless decrypt recovers m from ct with sks: the attack
// reproduces.
func assertReads(t *testing.T, decrypt decryptFunc, f *fixture, what string, ct *Ciphertext, m *pairing.GT, pk *UserPublicKey, sks map[string]*SecretKey) {
	t.Helper()
	got, err := decrypt(f.sys, ct, pk, sks)
	if err != nil || !got.Equal(m) {
		t.Fatalf("finding no longer reproduces: %s not recovered (err %v); update SECURITY.md item 1", what, err)
	}
}

// TestFindingAttributeKeyDerivation: one user, no collusion. Eve holds
// med:nurse and uni:student. K_nurse^(H(med:doctor)·H(med:nurse)⁻¹ mod r)
// is the med:doctor key AA med would issue Eve, and K_student likewise
// gives K_professor. With them Eve decrypts "med:doctor AND uni:professor".
// One attribute at an authority yields every attribute of that authority.
func TestFindingAttributeKeyDerivation(t *testing.T) {
	forEachScale(t, func(t *testing.T, params *pairing.Params) {
		forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
			f := findingFixture(t, params)
			eve := f.enrol("eve", map[string][]string{"med": {"nurse"}, "uni": {"student"}})
			m, ct := f.encrypt("med:doctor AND uni:professor")
			if _, err := decrypt(f.sys, ct, eve.pk, eve.sks); err == nil {
				t.Fatal("eve decrypted with the keys issued to eve")
			}

			sks := map[string]*SecretKey{
				"med": withDerivedKey(params, eve.sks["med"], "med:nurse", "med:doctor"),
				"uni": withDerivedKey(params, eve.sks["uni"], "uni:student", "uni:professor"),
			}
			issued, err := f.aas["med"].KeyGen(eve.pk, f.owner.SecretKeyForAAs(), []string{"doctor"})
			if err != nil {
				t.Fatal(err)
			}
			if !sks["med"].KAttr["med:doctor"].Equal(issued.KAttr["med:doctor"]) {
				t.Fatal("finding no longer reproduces: the derived K_doctor is not the key AA med issues")
			}
			assertReads(t, decrypt, f, "the med:doctor AND uni:professor message", ct, m, eve.pk, sks)
		})
	})
}

// TestFindingRevocationUndoneByScaling: Alice loses med:doctor and keeps
// med:nurse. The reduced key AA.KeyGen issues Alice at the new version key α̃
// holds K̃_nurse = PK_UID^(α̃·H(med:nurse)); raised to
// H(med:doctor)·H(med:nurse)⁻¹ mod r it is K̃_doctor = PK_UID^(α̃·H(med:doctor)),
// the key a non-revoked doctor holds after the update. Alice reads both the
// re-encrypted old ciphertext and a new one.
func TestFindingRevocationUndoneByScaling(t *testing.T) {
	forEachScale(t, func(t *testing.T, params *pairing.Params) {
		forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
			f := findingFixture(t, params)
			alice := f.enrol("alice", map[string][]string{"med": {"doctor", "nurse"}, "uni": {"researcher"}})
			const policy = "med:doctor AND uni:researcher"
			mOld, ctOld := f.encrypt(policy)
			reenc := revokeAttr(t, f, "med", alice, []string{"nurse"}, nil, []*Ciphertext{ctOld})
			mNew, ctNew := f.encrypt(policy)
			if _, err := decrypt(f.sys, reenc[0], alice.pk, alice.sks); err == nil {
				t.Fatal("revoked alice decrypted with the keys the protocol left")
			}

			sks := map[string]*SecretKey{
				"med": withDerivedKey(params, alice.sks["med"], "med:nurse", "med:doctor"),
				"uni": alice.sks["uni"],
			}
			assertReads(t, decrypt, f, "the re-encrypted old ciphertext", reenc[0], mOld, alice.pk, sks)
			assertReads(t, decrypt, f, "a ciphertext made after the revocation", ctNew, mNew, alice.pk, sks)
		})
	})
}

// TestFindingRevocationUndoneByUpdateKey: AA.UpdateKeyFor returns one
// (UK1, UK2) per owner and version, the same for every user. Alice, revoked
// from med:doctor, keeps the key from before the revocation and applies
// UpdateSecretKey to it with the update key any non-revoked user received:
// K·UK1 = PK_UID^(r/β)·g^(α̃/β) and K_x^UK2 = PK_UID^(α̃·H(x)), exactly the
// updated key of a non-revoked holder. Alice reads both the re-encrypted old
// ciphertext and a new one.
func TestFindingRevocationUndoneByUpdateKey(t *testing.T) {
	forEachScale(t, func(t *testing.T, params *pairing.Params) {
		forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
			f := findingFixture(t, params)
			alice := f.enrol("alice", map[string][]string{"med": {"doctor"}, "uni": {"researcher"}})
			bob := f.enrol("bob", map[string][]string{"med": {"doctor"}})
			const policy = "med:doctor AND uni:researcher"
			mOld, ctOld := f.encrypt(policy)
			kept := alice.sks["med"]
			reenc := revokeAttr(t, f, "med", alice, nil, []*fixtureUser{bob}, []*Ciphertext{ctOld})
			mNew, ctNew := f.encrypt(policy)

			// The update key bob applied: UpdateKeyFor is deterministic in
			// (owner, version), so asking again returns bob's copy.
			uk, err := f.aas["med"].UpdateKeyFor(f.owner.SecretKeyForAAs(), kept.Version)
			if err != nil {
				t.Fatal(err)
			}
			updated, err := UpdateSecretKey(kept, uk)
			if err != nil {
				t.Fatal(err)
			}
			sks := map[string]*SecretKey{"med": updated, "uni": alice.sks["uni"]}
			assertReads(t, decrypt, f, "the re-encrypted old ciphertext", reenc[0], mOld, alice.pk, sks)
			assertReads(t, decrypt, f, "a ciphertext made after the revocation", ctNew, mNew, alice.pk, sks)
		})
	})
}
