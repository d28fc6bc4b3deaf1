package core

import (
	"crypto/rand"
	mrand "math/rand"
	"testing"

	"maacs/internal/pairing"
	"maacs/internal/wire"
)

// FuzzUnmarshalCiphertext asserts the ciphertext decoder never panics, that
// whatever it accepts re-encodes stably, and that every element it returns
// through the engine's decoded-element cache equals a direct
// UnmarshalG/UnmarshalGT of the same bytes.
func FuzzUnmarshalCiphertext(f *testing.F) {
	sys := NewSystem(pairing.Test())
	ca := NewCA(sys)
	owner, err := NewOwner(sys, "fz-owner", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	if err := ca.RegisterAA("fz"); err != nil {
		f.Fatal(err)
	}
	aa, err := NewAA(sys, "fz", []string{"a", "b"}, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	owner.InstallPublicKeys(aa.PublicKeys())
	m, _, err := sys.Params.RandomGT(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := owner.Encrypt(m, "fz:a AND fz:b", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	good := ct.Marshal()
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalCiphertext(sys.Params, data)
		if err != nil {
			return
		}
		re := got.Marshal()
		got2, err := UnmarshalCiphertext(sys.Params, re)
		if err != nil {
			t.Fatalf("accepted ciphertext does not re-decode: %v", err)
		}
		if string(got2.Marshal()) != string(re) {
			t.Fatal("unstable re-encoding")
		}

		d := wire.NewDecoder(data)
		_, _, _ = d.String(), d.String(), d.String() // ID, owner, policy
		for i, n := 0, d.Count(2); i < n; i++ {
			_, _ = d.String(), d.Int()
		}
		c, err := sys.Params.UnmarshalGT(d.Blob())
		if err != nil || !got.C.Equal(c) {
			t.Fatalf("C differs from a direct decode (%v)", err)
		}
		cp, err := sys.Params.UnmarshalG(d.Blob())
		if err != nil || !got.CPrime.Equal(cp) {
			t.Fatalf("C' differs from a direct decode (%v)", err)
		}
		for i, n := 0, d.Count(1); i < n; i++ {
			row, err := sys.Params.UnmarshalG(d.Blob())
			if err != nil || !got.Rows[i].Equal(row) {
				t.Fatalf("row %d differs from a direct decode (%v)", i, err)
			}
		}
	})
}

// FuzzUnmarshalSecretKey mirrors the ciphertext fuzzer for secret keys.
func FuzzUnmarshalSecretKey(f *testing.F) {
	sys := NewSystem(pairing.Test())
	ca := NewCA(sys)
	owner, err := NewOwner(sys, "fz-owner", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	aa, err := NewAA(sys, "fz", []string{"a"}, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	user, err := ca.RegisterUser("fz-user", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	sk, err := aa.KeyGen(user, owner.SecretKeyForAAs(), []string{"a"})
	if err != nil {
		f.Fatal(err)
	}
	good := sk.Marshal()
	f.Add(good)
	f.Add([]byte{0x00})
	f.Add(good[:3])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalSecretKey(sys.Params, data)
		if err != nil {
			return
		}
		if _, err := UnmarshalSecretKey(sys.Params, got.Marshal()); err != nil {
			t.Fatalf("accepted key does not re-decode: %v", err)
		}
	})
}

// FuzzDecryptMatchesEq1 fuzzes the access policy and the user's attribute
// set and requires Decrypt and DecryptEq1 to agree: the same G_T bytes or
// the same error, and the message whenever decryption succeeds. The policy
// is randomPolicyOver's draw from policySeed over three authorities with
// three attributes each (AND, OR and k-of-n gates); bit i of held grants
// the user the i-th attribute. Every authority issues the user a key, so
// only the attribute set decides whether the policy is satisfied.
func FuzzDecryptMatchesEq1(f *testing.F) {
	fx := newFixture(f, map[string][]string{
		"a1": {"x0", "x1", "x2"},
		"a2": {"y0", "y1", "y2"},
		"a3": {"z0", "z1", "z2"},
	})
	universe := []string{
		"a1:x0", "a1:x1", "a1:x2",
		"a2:y0", "a2:y1", "a2:y2",
		"a3:z0", "a3:z1", "a3:z2",
	}
	user, err := fx.ca.RegisterUser("fz-user", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(20120703), uint16(0x1FF))
	f.Add(int64(1), uint16(0))
	f.Add(int64(7), uint16(0x0A5))
	f.Add(int64(-3), uint16(0x13C))
	f.Fuzz(func(t *testing.T, policySeed int64, held uint16) {
		policy := randomPolicyOver(mrand.New(mrand.NewSource(policySeed)), universe)
		m, _, err := fx.sys.Params.RandomGT(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := fx.owner.Encrypt(m, policy, rand.Reader)
		if err != nil {
			t.Fatalf("Encrypt(%q): %v", policy, err)
		}
		byAA := map[string][]string{"a1": nil, "a2": nil, "a3": nil}
		for i, q := range universe {
			if held>>i&1 == 1 {
				attr, err := ParseAttribute(q)
				if err != nil {
					t.Fatal(err)
				}
				byAA[attr.AID] = append(byAA[attr.AID], attr.Name)
			}
		}
		sks := make(map[string]*SecretKey, len(byAA))
		for aid, names := range byAA {
			sk, err := fx.aas[aid].KeyGen(user, fx.owner.SecretKeyForAAs(), names)
			if err != nil {
				t.Fatal(err)
			}
			sks[aid] = sk
		}
		got, err := decryptBoth(t, fx.sys, ct, user, sks)
		if err == nil && !got.Equal(m) {
			t.Fatalf("policy %q, held %#x: decryption returned the wrong message", policy, held)
		}
	})
}
