package hybrid

import (
	"crypto/rand"
	"testing"

	"maacs/internal/pairing"
)

// The paper's evaluation fixes the plaintext at 1 KByte.
const paperPlaintextSize = 1024

// benchParams uses the paper-scale curve unless -short: on the test curve
// a content key's G_T exponentiation is too cheap to show what it costs.
func benchParams() *pairing.Params {
	if testing.Short() {
		return pairing.Test()
	}
	return pairing.Default()
}

func benchKey(b *testing.B) *ContentKey {
	b.Helper()
	k, err := NewContentKey(benchParams(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkSeal1KB(b *testing.B) {
	k := benchKey(b)
	msg := make([]byte, paperPlaintextSize)
	b.SetBytes(paperPlaintextSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Seal(msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen1KB(b *testing.B) {
	k := benchKey(b)
	msg := make([]byte, paperPlaintextSize)
	ct, err := k.Seal(msg, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(paperPlaintextSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKDF(b *testing.B) {
	k := benchKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AESKey()
	}
}

func BenchmarkNewContentKey(b *testing.B) {
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewContentKey(p, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
