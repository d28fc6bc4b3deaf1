package lsss

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// benchOrder is the default pairing group order, a.param's 160-bit
// r = 2^159 + 2^107 + 1.
var benchOrder, _ = new(big.Int).SetString("730750818665451621361119245571504901405976559617", 10)

// andPolicy builds "a0 AND a1 AND … AND a(n−1)" — the figure workload shape.
func andPolicy(n int) string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("x:a%02d", i)
	}
	return strings.Join(terms, " AND ")
}

func benchmarkCompile(b *testing.B, n int) {
	policy := andPolicy(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompilePolicy(policy, benchOrder); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileAnd10(b *testing.B)  { benchmarkCompile(b, 10) }
func BenchmarkCompileAnd50(b *testing.B)  { benchmarkCompile(b, 50) }
func BenchmarkCompileAnd100(b *testing.B) { benchmarkCompile(b, 100) }

func benchmarkShare(b *testing.B, n int) {
	m, err := CompilePolicy(andPolicy(n), benchOrder)
	if err != nil {
		b.Fatal(err)
	}
	secret := big.NewInt(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Share(secret, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShare10(b *testing.B)  { benchmarkShare(b, 10) }
func BenchmarkShare100(b *testing.B) { benchmarkShare(b, 100) }

func benchmarkReconstruct(b *testing.B, n int) {
	m, err := CompilePolicy(andPolicy(n), benchOrder)
	if err != nil {
		b.Fatal(err)
	}
	attrs := append([]string(nil), m.Rho...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Reconstruct(attrs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct10(b *testing.B)  { benchmarkReconstruct(b, 10) }
func BenchmarkReconstruct100(b *testing.B) { benchmarkReconstruct(b, 100) }

func BenchmarkParseComplexPolicy(b *testing.B) {
	policy := "(a AND b) OR 3 of (c, d, e AND f, g OR h, i) AND (j OR k)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(policy); err != nil {
			b.Fatal(err)
		}
	}
}
