package core

import (
	"crypto/rand"
	"testing"

	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// benchFixture builds a 2-authority system over the curve selected by
// -short (test curve) or default (paper curve is exercised from the repo
// root benchmarks; here we keep the small curve for module-level numbers).
func benchFixture(b *testing.B) (*System, *CA, *Owner, map[string]*AA) {
	b.Helper()
	sys := NewSystem(pairing.Test())
	ca := NewCA(sys)
	owner, err := NewOwner(sys, "bo", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	aas := make(map[string]*AA)
	for _, aid := range []string{"a1", "a2"} {
		if err := ca.RegisterAA(aid); err != nil {
			b.Fatal(err)
		}
		aa, err := NewAA(sys, aid, []string{"x", "y", "z"}, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		aas[aid] = aa
		owner.InstallPublicKeys(aa.PublicKeys())
	}
	return sys, ca, owner, aas
}

func BenchmarkKeyGen3Attrs(b *testing.B) {
	_, ca, owner, aas := benchFixture(b)
	pk, err := ca.RegisterUser("bu", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aas["a1"].KeyGen(pk, owner.SecretKeyForAAs(), []string{"x", "y", "z"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncrypt6Rows(b *testing.B) {
	sys, _, owner, _ := benchFixture(b)
	m, _, err := sys.Params.RandomGT(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	const policy = "a1:x AND a1:y AND a1:z AND a2:x AND a2:y AND a2:z"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := owner.Encrypt(m, policy, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecrypt(b *testing.B, fast bool) {
	sys, ca, owner, aas := benchFixture(b)
	pk, err := ca.RegisterUser("bu", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	sks := make(map[string]*SecretKey)
	for aid, aa := range aas {
		sk, err := aa.KeyGen(pk, owner.SecretKeyForAAs(), []string{"x", "y", "z"})
		if err != nil {
			b.Fatal(err)
		}
		sks[aid] = sk
	}
	m, _, err := sys.Params.RandomGT(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := owner.Encrypt(m, "a1:x AND a1:y AND a2:x AND a2:y", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got *pairing.GT
		var err error
		if fast {
			got, err = DecryptFast(sys, ct, pk, sks)
		} else {
			got, err = Decrypt(sys, ct, pk, sks)
		}
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(m) {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkDecryptEq1(b *testing.B)  { benchDecrypt(b, false) }
func BenchmarkDecryptFast(b *testing.B) { benchDecrypt(b, true) }

func BenchmarkRekeyAndUpdateKey(b *testing.B) {
	_, _, owner, aas := benchFixture(b)
	aa := aas["a1"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fromV, _, err := aa.Rekey(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := aa.UpdateKeyFor(owner.SecretKeyForAAs(), fromV); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCiphertextMarshalRoundTrip times UnmarshalCiphertext of a
// 2-row ciphertext (three G elements and one G_T). "cold" cycles through
// more distinct ciphertexts than the engine's decoded-element cache holds,
// so every decode validates every element; "hit" decodes the same bytes
// every iteration, so after the first every element is a cache hit.
func BenchmarkCiphertextMarshalRoundTrip(b *testing.B) {
	sys, _, owner, _ := benchFixture(b)
	const distinct = 512 // 1,536 G and 512 G_T encodings: past both cache bounds
	encs := make([][]byte, distinct)
	for i := range encs {
		m, _, err := sys.Params.RandomGT(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := owner.Encrypt(m, "a1:x AND a2:y", rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		encs[i] = ct.Marshal()
	}
	run := func(b *testing.B, next func() []byte) {
		b.SetBytes(int64(len(encs[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalCiphertext(sys.Params, next()); err != nil {
				b.Fatal(err)
			}
		}
	}
	// The cursor carries over between the framework's calls with growing
	// b.N, so no round restarts on encodings the previous one cached.
	cursor := 0
	b.Run("cold", func(b *testing.B) {
		h0, _ := engine.DecodeCacheStats()
		run(b, func() []byte {
			cursor++
			return encs[cursor%distinct]
		})
		b.StopTimer()
		if h, _ := engine.DecodeCacheStats(); h != h0 {
			b.Fatalf("%d cold decodes hit the cache", h-h0)
		}
	})
	b.Run("hit", func(b *testing.B) {
		run(b, func() []byte { return encs[0] })
	})
}
