package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"maacs/internal/pairing"
)

// fixture wires a complete small system: one CA, several AAs with attribute
// universes, one owner who has exchanged keys with every AA, and helpers to
// enrol users.
type fixture struct {
	t     testing.TB
	sys   *System
	ca    *CA
	owner *Owner
	aas   map[string]*AA
}

type fixtureUser struct {
	pk  *UserPublicKey
	sks map[string]*SecretKey
}

// newFixture builds a system over the fast test pairing parameters.
// authorities maps AID → local attribute names.
func newFixture(t testing.TB, authorities map[string][]string) *fixture {
	t.Helper()
	return newFixtureOn(t, pairing.Test(), authorities)
}

// newFixtureOn is newFixture over the given pairing parameters.
func newFixtureOn(t testing.TB, params *pairing.Params, authorities map[string][]string) *fixture {
	t.Helper()
	sys := NewSystem(params)
	ca := NewCA(sys)
	owner, err := NewOwner(sys, "owner1", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, sys: sys, ca: ca, owner: owner, aas: make(map[string]*AA)}
	for aid, names := range authorities {
		if err := ca.RegisterAA(aid); err != nil {
			t.Fatal(err)
		}
		aa, err := NewAA(sys, aid, names, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		f.aas[aid] = aa
		owner.InstallPublicKeys(aa.PublicKeys())
	}
	return f
}

// enrol registers a user and issues keys; attrs maps AID → local attribute
// names for that user (an AID with an empty slice still yields a base key).
func (f *fixture) enrol(uid string, attrs map[string][]string) *fixtureUser {
	f.t.Helper()
	pk, err := f.ca.RegisterUser(uid, rand.Reader)
	if err != nil {
		f.t.Fatal(err)
	}
	u := &fixtureUser{pk: pk, sks: make(map[string]*SecretKey)}
	for aid, names := range attrs {
		sk, err := f.aas[aid].KeyGen(pk, f.owner.SecretKeyForAAs(), names)
		if err != nil {
			f.t.Fatal(err)
		}
		u.sks[aid] = sk
	}
	return u
}

func (f *fixture) randomMessage() *pairing.GT {
	f.t.Helper()
	m, _, err := f.sys.Params.RandomGT(rand.Reader)
	if err != nil {
		f.t.Fatal(err)
	}
	return m
}

func (f *fixture) encrypt(policy string) (*pairing.GT, *Ciphertext) {
	f.t.Helper()
	m := f.randomMessage()
	ct, err := f.owner.Encrypt(m, policy, rand.Reader)
	if err != nil {
		f.t.Fatalf("Encrypt(%q): %v", policy, err)
	}
	return m, ct
}

// decryptFunc is the signature Decrypt and DecryptEq1 share.
type decryptFunc func(*System, *Ciphertext, *UserPublicKey, map[string]*SecretKey) (*pairing.GT, error)

// decryptPaths lists both decryption paths: the two-loop Decrypt every
// caller uses and the paper's equation as printed. The security tests run
// on each, so a property the paper proves for Eq. 1 is checked on the path
// users actually run.
var decryptPaths = []struct {
	name string
	fn   decryptFunc
}{
	{"Decrypt", Decrypt},
	{"DecryptEq1", DecryptEq1},
}

// forEachDecryptPath runs body as one subtest per decryption path.
func forEachDecryptPath(t *testing.T, body func(t *testing.T, decrypt decryptFunc)) {
	for _, path := range decryptPaths {
		t.Run(path.name, func(t *testing.T) { body(t, path.fn) })
	}
}

// forEachScale runs body as one subtest per parameter set: the test curve,
// and outside -short the paper's a.param curve.
func forEachScale(t *testing.T, body func(t *testing.T, params *pairing.Params)) {
	t.Run("test-curve", func(t *testing.T) { body(t, pairing.Test()) })
	t.Run("paper-scale", func(t *testing.T) {
		if testing.Short() {
			t.Skip("paper-scale decryptions in -short mode")
		}
		body(t, pairing.Default())
	})
}

// decryptBoth runs Decrypt and DecryptEq1 on the same input and fails
// unless both return the same G_T bytes or both the same error. It
// returns Decrypt's result.
func decryptBoth(t testing.TB, sys *System, ct *Ciphertext, user *UserPublicKey, sks map[string]*SecretKey) (*pairing.GT, error) {
	t.Helper()
	got, err := Decrypt(sys, ct, user, sks)
	want, errEq1 := DecryptEq1(sys, ct, user, sks)
	switch {
	case (err == nil) != (errEq1 == nil):
		t.Fatalf("Decrypt error %v, DecryptEq1 error %v", err, errEq1)
	case err != nil && err.Error() != errEq1.Error():
		t.Fatalf("Decrypt error %q ≠ DecryptEq1 error %q", err, errEq1)
	case err == nil && !bytes.Equal(got.Marshal(), want.Marshal()):
		t.Fatal("Decrypt and DecryptEq1 return different G_T elements")
	}
	return got, err
}

func twoAuthorityFixture(t testing.TB) *fixture {
	return newFixture(t, map[string][]string{
		"med": {"doctor", "nurse", "surgeon"},
		"uni": {"researcher", "student", "professor"},
	})
}

func TestEncryptDecryptSingleAuthority(t *testing.T) {
	f := newFixture(t, map[string][]string{"med": {"doctor", "nurse"}})
	alice := f.enrol("alice", map[string][]string{"med": {"doctor"}})
	m, ct := f.encrypt("med:doctor")
	got, err := Decrypt(f.sys, ct, alice.pk, alice.sks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("decrypted message differs")
	}
}

func TestEncryptDecryptAcrossAuthorities(t *testing.T) {
	f := twoAuthorityFixture(t)
	alice := f.enrol("alice", map[string][]string{
		"med": {"doctor"},
		"uni": {"researcher"},
	})
	m, ct := f.encrypt("med:doctor AND uni:researcher")
	got, err := Decrypt(f.sys, ct, alice.pk, alice.sks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("decrypted message differs (paper's motivating scenario)")
	}
}

// TestDecryptFastMatchesDecrypt checks that the fast path users run,
// Decrypt, and the paper's Eq. 1 as printed, DecryptEq1, both recover the
// message, byte for byte the same G_T element.
func TestDecryptFastMatchesDecrypt(t *testing.T) {
	f := twoAuthorityFixture(t)
	alice := f.enrol("alice", map[string][]string{
		"med": {"doctor", "nurse"},
		"uni": {"researcher"},
	})
	m, ct := f.encrypt("(med:doctor OR med:surgeon) AND uni:researcher")
	got, err := decryptBoth(t, f.sys, ct, alice.pk, alice.sks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("both decryption paths must recover the message")
	}
}

// TestDecryptIdentityElementsMatchEq1 feeds decryption the identity of G,
// which the G encoding accepts (flag 0x00): as C', as each row of a
// ciphertext (one row unused by the user), as a key's K and K_x, and as
// PK_UID. Each identity drops or empties a factor on the Decrypt path
// (a skipped MultiExp term, a dropped PairMul factor); the result must be
// byte for byte DecryptEq1's, or both must fail alike.
func TestDecryptIdentityElementsMatchEq1(t *testing.T) {
	f := twoAuthorityFixture(t)
	alice := f.enrol("alice", map[string][]string{
		"med": {"doctor", "nurse"},
		"uni": {"researcher"},
	})
	p := f.sys.Params
	m, ct := f.encrypt("(med:doctor AND uni:researcher AND med:nurse) OR med:surgeon")
	if got, err := decryptBoth(t, f.sys, ct, alice.pk, alice.sks); err != nil || !got.Equal(m) {
		t.Fatalf("unaltered ciphertext: %v", err)
	}
	check := func(name string, ct *Ciphertext, user *UserPublicKey, sks map[string]*SecretKey) {
		t.Helper()
		if _, err := decryptBoth(t, f.sys, ct, user, sks); err != nil {
			t.Fatalf("identity %s: %v", name, err)
		}
	}
	// Altered ciphertexts travel through the wire encoding, so the
	// decoder's acceptance of the identity is part of what is checked.
	withCT := func(edit func(c *Ciphertext)) *Ciphertext {
		t.Helper()
		c := ct.Clone()
		edit(c)
		out, err := UnmarshalCiphertext(p, c.Marshal())
		if err != nil {
			t.Fatalf("identity element rejected by the decoder: %v", err)
		}
		return out
	}
	withKey := func(aid string, edit func(sk *SecretKey)) map[string]*SecretKey {
		sks := make(map[string]*SecretKey, len(alice.sks))
		for k, v := range alice.sks {
			sks[k] = v
		}
		sk := *alice.sks[aid]
		sk.KAttr = make(map[string]*pairing.G, len(sk.KAttr))
		for q, k := range alice.sks[aid].KAttr {
			sk.KAttr[q] = k
		}
		edit(&sk)
		sks[aid] = &sk
		return sks
	}
	check("C'", withCT(func(c *Ciphertext) { c.CPrime = p.OneG() }), alice.pk, alice.sks)
	for i, attr := range ct.Matrix.Rho {
		check("row "+attr, withCT(func(c *Ciphertext) { c.Rows[i] = p.OneG() }), alice.pk, alice.sks)
	}
	check("med K", ct, alice.pk, withKey("med", func(sk *SecretKey) { sk.K = p.OneG() }))
	check("uni K", ct, alice.pk, withKey("uni", func(sk *SecretKey) { sk.K = p.OneG() }))
	check("K_x med:doctor", ct, alice.pk, withKey("med", func(sk *SecretKey) { sk.KAttr["med:doctor"] = p.OneG() }))
	check("K_x uni:researcher", ct, alice.pk, withKey("uni", func(sk *SecretKey) { sk.KAttr["uni:researcher"] = p.OneG() }))
	check("PK_UID", ct, &UserPublicKey{UID: alice.pk.UID, PK: p.OneG()}, alice.sks)
}

func TestDecryptFailsWithoutSatisfyingAttributes(t *testing.T) {
	forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
		f := twoAuthorityFixture(t)
		bob := f.enrol("bob", map[string][]string{
			"med": {"nurse"},
			"uni": {"researcher"},
		})
		_, ct := f.encrypt("med:doctor AND uni:researcher")
		_, err := decrypt(f.sys, ct, bob.pk, bob.sks)
		if !errors.Is(err, ErrPolicyNotSatisfied) {
			t.Fatalf("got %v, want ErrPolicyNotSatisfied", err)
		}
	})
}

func TestDecryptRequiresKeyFromEveryInvolvedAuthority(t *testing.T) {
	forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
		f := twoAuthorityFixture(t)
		// carol satisfies the policy attribute-wise through med only, but the
		// ciphertext involves uni too, so a uni base key is required.
		carol := f.enrol("carol", map[string][]string{"med": {"doctor"}})
		_, ct := f.encrypt("med:doctor OR uni:professor")
		_, err := decrypt(f.sys, ct, carol.pk, carol.sks)
		if !errors.Is(err, ErrMissingSecretKey) {
			t.Fatalf("got %v, want ErrMissingSecretKey", err)
		}
		// With a base (attribute-less) key from uni it must work.
		sk, err := f.aas["uni"].KeyGen(carol.pk, f.owner.SecretKeyForAAs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		carol.sks["uni"] = sk
		m2, ct2 := f.encrypt("med:doctor OR uni:professor")
		got, err := decrypt(f.sys, ct2, carol.pk, carol.sks)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(m2) {
			t.Fatal("decryption with base key failed")
		}
	})
}

// relabel returns a copy of sk issued, by its label, to uid. The key
// material is untouched: only the UID field newDecryptionPlan checks
// changes, which is how a colluder would get past that check.
func relabel(sk *SecretKey, uid string) *SecretKey {
	c := *sk
	c.UID = uid
	return &c
}

// TestCollusionResistance is the paper's Theorem 1 scenario: two users whose
// *combined* attributes satisfy the policy must not be able to decrypt by
// pooling their secret keys, because each key set is blinded by a different
// UID exponent. The first two attempts stop at the key labels; the last two
// relabel the borrowed key, so the pairings run and the cryptographic UID
// binding alone must defeat them.
func TestCollusionResistance(t *testing.T) {
	forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
		f := twoAuthorityFixture(t)
		dave := f.enrol("dave", map[string][]string{
			"med": {"doctor"},
			"uni": nil,
		})
		erin := f.enrol("erin", map[string][]string{
			"med": nil,
			"uni": {"researcher"},
		})
		m, ct := f.encrypt("med:doctor AND uni:researcher")

		// Pooling attempt 1: dave uses erin's uni key alongside his med key.
		pooled := map[string]*SecretKey{"med": dave.sks["med"], "uni": erin.sks["uni"]}
		if got, err := decrypt(f.sys, ct, dave.pk, pooled); err == nil && got.Equal(m) {
			t.Fatal("collusion succeeded: mixed-UID keys decrypted the ciphertext")
		}
		// Pooling attempt 2: same keys presented under erin's identity.
		if got, err := decrypt(f.sys, ct, erin.pk, pooled); err == nil && got.Equal(m) {
			t.Fatal("collusion succeeded under the second user's identity")
		}
		// Pooling attempts 3 and 4: the borrowed key relabelled with the
		// presenting user's UID, under dave's and then erin's identity.
		for _, attempt := range []struct {
			user *fixtureUser
			uid  string
			sks  map[string]*SecretKey
		}{
			{dave, "dave", map[string]*SecretKey{"med": dave.sks["med"], "uni": relabel(erin.sks["uni"], "dave")}},
			{erin, "erin", map[string]*SecretKey{"med": relabel(dave.sks["med"], "erin"), "uni": erin.sks["uni"]}},
		} {
			got, err := decrypt(f.sys, ct, attempt.user.pk, attempt.sks)
			if err != nil {
				t.Fatalf("relabelled keys under %s's identity did not reach the pairings: %v", attempt.uid, err)
			}
			if got.Equal(m) {
				t.Fatalf("collusion succeeded: relabelled keys decrypted under %s's identity", attempt.uid)
			}
		}
	})
}

// TestCrossAuthorityKeySubstitution checks the AID-qualification property:
// an attribute named "admin" at two authorities yields distinguishable keys,
// so a key for med:admin cannot stand in for uni:admin.
func TestCrossAuthorityKeySubstitution(t *testing.T) {
	forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
		f := newFixture(t, map[string][]string{
			"med": {"admin"},
			"uni": {"admin"},
		})
		mallory := f.enrol("mallory", map[string][]string{
			"med": {"admin"},
			"uni": nil,
		})
		m, ct := f.encrypt("uni:admin")
		// Graft the med:admin component under the uni:admin label.
		forged := &SecretKey{
			UID:     mallory.sks["uni"].UID,
			AID:     "uni",
			OwnerID: mallory.sks["uni"].OwnerID,
			Version: mallory.sks["uni"].Version,
			K:       mallory.sks["uni"].K,
			KAttr:   map[string]*pairing.G{"uni:admin": mallory.sks["med"].KAttr["med:admin"]},
		}
		sks := map[string]*SecretKey{"uni": forged, "med": mallory.sks["med"]}
		if got, err := decrypt(f.sys, ct, mallory.pk, sks); err == nil && got.Equal(m) {
			t.Fatal("attribute substitution across authorities succeeded")
		}
	})
}

func TestDecryptRejectsKeysForOtherOwner(t *testing.T) {
	forEachDecryptPath(t, func(t *testing.T, decrypt decryptFunc) {
		f := twoAuthorityFixture(t)
		alice := f.enrol("alice", map[string][]string{
			"med": {"doctor"},
			"uni": {"researcher"},
		})
		owner2, err := NewOwner(f.sys, "owner2", rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, aa := range f.aas {
			owner2.InstallPublicKeys(aa.PublicKeys())
		}
		m2, _, err := f.sys.Params.RandomGT(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		ct2, err := owner2.Encrypt(m2, "med:doctor AND uni:researcher", rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// alice's keys were issued under owner1's SK_o: they must not decrypt
		// owner2's data.
		_, err = decrypt(f.sys, ct2, alice.pk, alice.sks)
		if !errors.Is(err, ErrWrongOwner) {
			t.Fatalf("got %v, want ErrWrongOwner", err)
		}
	})
}

func TestEncryptUnknownAttributeFails(t *testing.T) {
	f := twoAuthorityFixture(t)
	m := f.randomMessage()
	if _, err := f.owner.Encrypt(m, "med:wizard", rand.Reader); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
	if _, err := f.owner.Encrypt(m, "ghost:doctor", rand.Reader); !errors.Is(err, ErrUnknownAuthority) {
		t.Fatalf("got %v, want ErrUnknownAuthority", err)
	}
}

func TestEncryptRejectsUnqualifiedAttribute(t *testing.T) {
	f := twoAuthorityFixture(t)
	m := f.randomMessage()
	if _, err := f.owner.Encrypt(m, "doctor", rand.Reader); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("got %v, want ErrBadAttribute", err)
	}
}

func TestThresholdPolicyAcrossThreeAuthorities(t *testing.T) {
	f := newFixture(t, map[string][]string{
		"a": {"x"},
		"b": {"y"},
		"c": {"z"},
	})
	u := f.enrol("u", map[string][]string{
		"a": {"x"},
		"b": nil,
		"c": {"z"},
	})
	m, ct := f.encrypt("2 of (a:x, b:y, c:z)")
	got, err := Decrypt(f.sys, ct, u.pk, u.sks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("2-of-3 policy across authorities failed")
	}
}

func TestKeyGenRejectsUnknownAttribute(t *testing.T) {
	f := twoAuthorityFixture(t)
	pk, err := f.ca.RegisterUser("zed", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.aas["med"].KeyGen(pk, f.owner.SecretKeyForAAs(), []string{"pilot"})
	if !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
}

func TestCARejectsDuplicates(t *testing.T) {
	f := twoAuthorityFixture(t)
	if _, err := f.ca.RegisterUser("alice", rand.Reader); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ca.RegisterUser("alice", rand.Reader); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("got %v, want ErrDuplicateID", err)
	}
	if err := f.ca.RegisterAA("med"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("got %v, want ErrDuplicateID", err)
	}
}

func TestParseAttribute(t *testing.T) {
	a, err := ParseAttribute("med:doctor")
	if err != nil || a.AID != "med" || a.Name != "doctor" {
		t.Fatalf("ParseAttribute: %+v, %v", a, err)
	}
	for _, bad := range []string{"", "noseparator", ":x", "x:"} {
		if _, err := ParseAttribute(bad); !errors.Is(err, ErrBadAttribute) {
			t.Errorf("ParseAttribute(%q): got %v, want ErrBadAttribute", bad, err)
		}
	}
}

func TestCiphertextSizeFormula(t *testing.T) {
	f := twoAuthorityFixture(t)
	_, ct := f.encrypt("med:doctor AND (uni:researcher OR uni:student)")
	p := f.sys.Params
	want := p.GTByteLen() + (3+1)*p.GByteLen() // |GT| + (l+1)|G| with l = 3
	if got := ct.Size(p); got != want {
		t.Fatalf("ciphertext size = %d, want %d", got, want)
	}
}
