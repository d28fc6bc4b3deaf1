package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// benchParams uses the paper-scale curve unless -short.
func benchParams(b *testing.B) *Params {
	b.Helper()
	if testing.Short() {
		return Test()
	}
	return Default()
}

// benchKernels times the fast operation as the "montgomery" sub-benchmark
// and, where one exists, its reference function as "reference", both on the
// same Params with allocation reporting on. setup builds the operands and
// returns the two operations; ref is nil when there is no reference.
func benchKernels(b *testing.B, setup func(p *Params) (fast, ref func())) {
	b.Helper()
	fast, ref := setup(benchParams(b))
	run := func(name string, op func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
	run("montgomery", fast)
	if ref != nil {
		run("reference", ref)
	}
}

// BenchmarkPair measures the full reduced pairing against the affine
// reference.
func BenchmarkPair(b *testing.B) {
	benchKernels(b, func(p *Params) (func(), func()) {
		ka, _ := p.RandomScalar(rand.Reader)
		kb, _ := p.RandomScalar(rand.Reader)
		ga, gb := p.Generator().Exp(ka), p.Generator().Exp(kb)
		return func() { p.MustPair(ga, gb) }, func() { p.PairReference(ga, gb) }
	})
}

// BenchmarkMiller isolates the Miller loop (no final exponentiation).
func BenchmarkMiller(b *testing.B) {
	benchKernels(b, func(p *Params) (func(), func()) {
		g := p.gen
		return func() { p.millerMont(nil, infinity(), g, g) }, func() { p.miller(g, g) }
	})
}

// BenchmarkPreparedPair measures pairing against cached line coefficients.
func BenchmarkPreparedPair(b *testing.B) {
	benchKernels(b, func(p *Params) (func(), func()) {
		pre := p.Prepare(p.Generator())
		k, _ := p.RandomScalar(rand.Reader)
		q := p.Generator().Exp(k)
		return func() { pre.Pair(q) }, nil
	})
}

// BenchmarkPrepare measures building the line cache: one batch inversion
// for the whole Miller chain.
func BenchmarkPrepare(b *testing.B) {
	benchKernels(b, func(p *Params) (func(), func()) {
		g := p.Generator()
		return func() { p.Prepare(g) }, nil
	})
}

// BenchmarkGExp measures scalar multiplication in G: the limb Jacobian NAF
// ladder vs the affine double-and-add reference.
func BenchmarkGExp(b *testing.B) {
	benchKernels(b, func(p *Params) (func(), func()) {
		k, _ := p.RandomScalar(rand.Reader)
		g := p.Generator()
		return func() { g.Exp(k) }, func() { g.ExpReference(k) }
	})
}

// BenchmarkGTExp measures target-group exponentiation: Lucas ladder vs
// unitary square-and-multiply.
func BenchmarkGTExp(b *testing.B) {
	benchKernels(b, func(p *Params) (func(), func()) {
		e := p.GTGenerator()
		k, _ := p.RandomScalar(rand.Reader)
		return func() { e.Exp(k) }, func() { e.ExpReference(k) }
	})
}

func BenchmarkFinalExp(b *testing.B) {
	p := benchParams(b)
	f := p.millerMont(nil, infinity(), p.gen, p.gen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.finalExpMont(&f)
	}
}

// BenchmarkPairMul measures e(P, q)·e(a, b) with P prepared: one shared
// squaring chain walking P's cached lines and running a's Miller loop,
// and one final exponentiation.
func BenchmarkPairMul(b *testing.B) {
	p := benchParams(b)
	var pts [4]*G
	for i := range pts {
		k, _ := p.RandomScalar(rand.Reader)
		pts[i] = p.Generator().Exp(k)
	}
	pre := p.Prepare(pts[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pre.PairMul(pts[1], pts[2], pts[3]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiExp measures a six-base product with the read workload's
// small signed exponents ("read") and with full-width random ones ("full").
func BenchmarkMultiExp(b *testing.B) {
	p := benchParams(b)
	bases := make([]*G, 6)
	full := make([]*big.Int, 6)
	for i := range bases {
		k, _ := p.RandomScalar(rand.Reader)
		bases[i] = p.Generator().Exp(k)
		full[i], _ = p.RandomScalar(rand.Reader)
	}
	read := []*big.Int{big.NewInt(18), big.NewInt(-45), big.NewInt(60), big.NewInt(-45), big.NewInt(18), big.NewInt(-3)}
	for _, bc := range []struct {
		name string
		ks   []*big.Int
	}{{"read", read}, {"full", full}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.MultiExp(bases, bc.ks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExpFixedBase(b *testing.B) {
	p := benchParams(b)
	k, _ := p.RandomScalar(rand.Reader)
	p.FixedBaseExp(k) // build the table outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FixedBaseExp(k)
	}
}

func BenchmarkHashToG(b *testing.B) {
	p := benchParams(b)
	msg := []byte("med:doctor")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.HashToG(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashToScalar(b *testing.B) {
	p := benchParams(b)
	msg := []byte("med:doctor")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.HashToScalar(msg)
	}
}

// BenchmarkUnmarshalG decodes one element of G: the x-only subgroup test
// against UnmarshalGReference's r·P = O by the affine ladder, on the same
// encoding.
func BenchmarkUnmarshalG(b *testing.B) {
	benchKernels(b, func(p *Params) (fast, ref func()) {
		k, _ := p.RandomScalar(rand.Reader)
		data := p.Generator().Exp(k).Marshal()
		return func() { p.UnmarshalG(data) }, func() { p.UnmarshalGReference(data) }
	})
}

// BenchmarkSubgroupCheck times UnmarshalG's order test alone: the x-only
// doublings, the summation polynomial and the m·P = O check.
func BenchmarkSubgroupCheck(b *testing.B) {
	p := benchParams(b)
	k, _ := p.RandomScalar(rand.Reader)
	pt := p.Generator().Exp(k).pt
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.inG(pt) {
			b.Fatal("element of G rejected")
		}
	}
}

// benchFieldOperands builds a deterministic pair of base-field elements in
// both representations for the kernel-split field microbenchmarks.
func benchFieldOperands(b *testing.B) (p *Params, xb, yb *big.Int, xm, ym fpElement) {
	b.Helper()
	p = benchParams(b)
	xb = new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(0xA5A5A5A5), uint(p.Q.BitLen()-40)), p.Q)
	yb = new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(0x5A5A5A5A), uint(p.Q.BitLen()-48)), p.Q)
	p.fpc.fromBig(&xm, xb)
	p.fpc.fromBig(&ym, yb)
	return
}

// BenchmarkFpMul compares one base-field multiplication: fixed-width CIOS
// Montgomery vs big.Int Mul+Mod. This is the innermost hot-path operation —
// a Miller loop at paper scale runs hundreds of thousands of these.
func BenchmarkFpMul(b *testing.B) {
	p, xb, yb, xm, ym := benchFieldOperands(b)
	b.Run("montgomery", func(b *testing.B) {
		b.ReportAllocs()
		var z fpElement
		for i := 0; i < b.N; i++ {
			p.fpc.mul(&z, &xm, &ym)
		}
	})
	b.Run("bigint", func(b *testing.B) {
		b.ReportAllocs()
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			z.Mul(xb, yb)
			z.Mod(z, p.Q)
		}
	})
}

// BenchmarkFpSquare compares one base-field squaring.
func BenchmarkFpSquare(b *testing.B) {
	p, xb, _, xm, _ := benchFieldOperands(b)
	b.Run("montgomery", func(b *testing.B) {
		b.ReportAllocs()
		var z fpElement
		for i := 0; i < b.N; i++ {
			p.fpc.square(&z, &xm)
		}
	})
	b.Run("bigint", func(b *testing.B) {
		b.ReportAllocs()
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			z.Mul(xb, xb)
			z.Mod(z, p.Q)
		}
	})
}

// BenchmarkFpInv compares one base-field inversion: binary extended GCD on
// fixed-width limbs vs big.Int ModInverse (binary extended GCD).
func BenchmarkFpInv(b *testing.B) {
	p, xb, _, xm, _ := benchFieldOperands(b)
	b.Run("montgomery", func(b *testing.B) {
		b.ReportAllocs()
		var z fpElement
		for i := 0; i < b.N; i++ {
			p.fpc.inv(&z, &xm)
		}
	})
	b.Run("bigint", func(b *testing.B) {
		b.ReportAllocs()
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			z.ModInverse(xb, p.Q)
		}
	})
}

// BenchmarkFp2Mul compares one F_q² multiplication, the unit of work of
// every Miller-loop line evaluation and Lucas ladder step.
func BenchmarkFp2Mul(b *testing.B) {
	p := benchParams(b)
	x := p.GTGenerator().v
	y := p.GTGenerator().Exp(big.NewInt(7)).v
	b.Run("montgomery", func(b *testing.B) {
		b.ReportAllocs()
		var xm, ym, zm fp2m
		p.fpc.fp2mFromFp2(&xm, x)
		p.fpc.fp2mFromFp2(&ym, y)
		for i := 0; i < b.N; i++ {
			p.fpc.fp2mMul(&zm, &xm, &ym)
		}
	})
	b.Run("bigint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.fp2Mul(x, y)
		}
	})
}
