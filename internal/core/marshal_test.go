package core

import (
	"bytes"
	"crypto/rand"
	"testing"

	"maacs/internal/wire"
)

func TestUserPublicKeyMarshalRoundTrip(t *testing.T) {
	f := twoAuthorityFixture(t)
	pk, err := f.ca.RegisterUser("marshal-u", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUserPublicKey(f.sys.Params, pk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != pk.UID || !got.PK.Equal(pk.PK) {
		t.Fatal("round trip changed the key")
	}
}

func TestSecretKeyMarshalRoundTrip(t *testing.T) {
	f := twoAuthorityFixture(t)
	alice := f.enrol("alice", map[string][]string{
		"med": {"doctor", "nurse"},
		"uni": {"researcher"},
	})
	for aid, sk := range alice.sks {
		data := sk.Marshal()
		got, err := UnmarshalSecretKey(f.sys.Params, data)
		if err != nil {
			t.Fatalf("%s: %v", aid, err)
		}
		if got.UID != sk.UID || got.AID != sk.AID || got.OwnerID != sk.OwnerID || got.Version != sk.Version {
			t.Fatalf("%s: metadata changed", aid)
		}
		if !got.K.Equal(sk.K) || len(got.KAttr) != len(sk.KAttr) {
			t.Fatalf("%s: key material changed", aid)
		}
		for q, kx := range sk.KAttr {
			if !got.KAttr[q].Equal(kx) {
				t.Fatalf("%s: attribute key %q changed", aid, q)
			}
		}
		// Deterministic encoding.
		if !bytes.Equal(data, got.Marshal()) {
			t.Fatalf("%s: non-deterministic encoding", aid)
		}
	}
}

func TestPublicKeysMarshalRoundTrip(t *testing.T) {
	f := twoAuthorityFixture(t)
	pks := f.aas["med"].PublicKeys()
	got, err := UnmarshalPublicKeys(f.sys.Params, pks.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner.AID != "med" || !got.Owner.EggAlpha.Equal(pks.Owner.EggAlpha) {
		t.Fatal("owner public key changed")
	}
	if len(got.Attrs) != len(pks.Attrs) {
		t.Fatal("attribute key count changed")
	}
	for q, apk := range pks.Attrs {
		g := got.Attrs[q]
		if g == nil || !g.PK.Equal(apk.PK) || g.Attr != apk.Attr {
			t.Fatalf("attribute key %q changed", q)
		}
	}
}

func TestCiphertextMarshalRoundTripAndDecrypt(t *testing.T) {
	f := twoAuthorityFixture(t)
	alice := f.enrol("alice", map[string][]string{
		"med": {"doctor"},
		"uni": {"researcher"},
	})
	m, ct := f.encrypt("med:doctor AND (uni:researcher OR uni:student)")
	got, err := UnmarshalCiphertext(f.sys.Params, ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ct.ID || got.OwnerID != ct.OwnerID || got.Policy != ct.Policy {
		t.Fatal("metadata changed")
	}
	// The round-tripped ciphertext must still decrypt.
	dec, err := Decrypt(f.sys, got, alice.pk, alice.sks)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(m) {
		t.Fatal("round-tripped ciphertext decrypts to wrong message")
	}
}

func TestCiphertextUnmarshalRejectsCorruption(t *testing.T) {
	f := twoAuthorityFixture(t)
	_, ct := f.encrypt("med:doctor AND uni:researcher")
	good := ct.Marshal()

	if _, err := UnmarshalCiphertext(f.sys.Params, good[:len(good)/2]); err == nil {
		t.Error("accepted truncated ciphertext")
	}
	if _, err := UnmarshalCiphertext(f.sys.Params, append(append([]byte{}, good...), 0xAB)); err == nil {
		t.Error("accepted trailing garbage")
	}
	// Flip a byte inside a group element: subgroup/curve check must catch it
	// or the policy recompile must fail. Either way it cannot round-trip
	// silently into a different element.
	for off := len(good) - 5; off < len(good); off++ {
		bad := append([]byte{}, good...)
		bad[off] ^= 0x40
		if ct2, err := UnmarshalCiphertext(f.sys.Params, bad); err == nil {
			// Accepted decodings must differ from the original in a way
			// decryption would detect; at minimum the bytes re-encode
			// differently than the original.
			if bytes.Equal(ct2.Marshal(), good) {
				t.Errorf("corruption at %d silently ignored", off)
			}
		}
	}
}

// TestCiphertextUnmarshalRejectsVersionMapMismatch: the version map must
// name exactly the policy's authorities, in strictly increasing AID order.
// An extra entry used to be accepted, and a later revocation at that
// authority then re-encrypted C while touching no row, so an authorized
// holder decrypted the wrong plaintext without an error.
func TestCiphertextUnmarshalRejectsVersionMapMismatch(t *testing.T) {
	f := twoAuthorityFixture(t)
	_, one := f.encrypt("med:doctor")
	_, two := f.encrypt("med:doctor AND uni:researcher")
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"extra", encodeWithVersions(one, "med", "uni")},
		{"duplicate", encodeWithVersions(one, "med", "med")},
		{"out of order", encodeWithVersions(two, "uni", "med")},
	} {
		if _, err := UnmarshalCiphertext(f.sys.Params, tc.data); err == nil {
			t.Errorf("%s version entry accepted", tc.name)
		}
	}
	if _, err := UnmarshalCiphertext(f.sys.Params, encodeWithVersions(two, "med", "uni")); err != nil {
		t.Fatalf("the Marshal form of the same ciphertext: %v", err)
	}
}

// encodeWithVersions encodes ct as Marshal does, except that the version
// entries name aids in the order given, each at version 0.
func encodeWithVersions(ct *Ciphertext, aids ...string) []byte {
	var e wire.Encoder
	e.String(ct.ID)
	e.String(ct.OwnerID)
	e.String(ct.Policy)
	e.Int(len(aids))
	for _, aid := range aids {
		e.String(aid)
		e.Int(0)
	}
	e.Blob(ct.C.Marshal())
	e.Blob(ct.CPrime.Marshal())
	e.Int(len(ct.Rows))
	for _, row := range ct.Rows {
		e.Blob(row.Marshal())
	}
	return e.Bytes()
}

func TestUpdateKeyMarshalRoundTrip(t *testing.T) {
	f := twoAuthorityFixture(t)
	fromV, _, err := f.aas["med"].Rekey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := f.aas["med"].UpdateKeyFor(f.owner.SecretKeyForAAs(), fromV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdateKey(f.sys.Params, uk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.AID != uk.AID || got.OwnerID != uk.OwnerID ||
		got.FromVersion != uk.FromVersion || got.ToVersion != uk.ToVersion {
		t.Fatal("metadata changed")
	}
	if !got.UK1.Equal(uk.UK1) || got.UK2.Cmp(uk.UK2) != 0 {
		t.Fatal("key material changed")
	}
}

func TestUpdateInfoMarshalRoundTripAndReEncrypt(t *testing.T) {
	f := twoAuthorityFixture(t)
	bob := f.enrol("bob", map[string][]string{
		"med": {"doctor"},
		"uni": {"researcher"},
	})
	m, ct := f.encrypt("med:doctor AND uni:researcher")

	fromV, _, err := f.aas["med"].Rekey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := f.aas["med"].UpdateKeyFor(f.owner.SecretKeyForAAs(), fromV)
	if err != nil {
		t.Fatal(err)
	}
	ui, err := f.owner.UpdateInfoFor(ct, uk)
	if err != nil {
		t.Fatal(err)
	}

	// Ship UI and UK through the wire format, then re-encrypt with the
	// decoded copies — exactly what the networked server does.
	ui2, err := UnmarshalUpdateInfo(f.sys.Params, ui.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	uk2, err := UnmarshalUpdateKey(f.sys.Params, uk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	reenc, touched, err := ReEncrypt(f.sys, ct, ui2, uk2)
	if err != nil {
		t.Fatal(err)
	}
	if touched != 1 {
		t.Fatalf("touched %d rows, want 1", touched)
	}
	// Bob updates via the round-tripped key and reads the result.
	updated, err := UpdateSecretKey(bob.sks["med"], uk2)
	if err != nil {
		t.Fatal(err)
	}
	bob.sks["med"] = updated
	got, err := Decrypt(f.sys, reenc, bob.pk, bob.sks)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("decryption after wire round trip failed")
	}
}

func TestUnmarshalSecretKeyRejectsGarbage(t *testing.T) {
	f := twoAuthorityFixture(t)
	if _, err := UnmarshalSecretKey(f.sys.Params, []byte{0x01, 0x02}); err == nil {
		t.Fatal("accepted garbage")
	}
	alice := f.enrol("alice", map[string][]string{"med": {"doctor"}, "uni": nil})
	good := alice.sks["med"].Marshal()
	bad := append([]byte{}, good...)
	bad[len(bad)-1] ^= 0xFF // corrupt the last attribute key element
	if _, err := UnmarshalSecretKey(f.sys.Params, bad); err == nil {
		// A flipped compressed-point byte may still decode to a valid point;
		// but it must not be the same element.
		got, _ := UnmarshalSecretKey(f.sys.Params, bad)
		if got != nil && got.KAttr["med:doctor"].Equal(alice.sks["med"].KAttr["med:doctor"]) {
			t.Fatal("corruption not detected")
		}
	}
}
