package core

import (
	"crypto/rand"
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
