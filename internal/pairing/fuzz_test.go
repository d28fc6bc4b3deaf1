package pairing

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzUnmarshalG asserts UnmarshalG ≡ UnmarshalGReference: the x-only
// subgroup test accepts exactly what r·P = O by the affine ladder accepts,
// with the same error and the same point, and what it accepts round-trips.
// The seeds cover elements of G, an element of G plus a point of each
// small order of the test curve's h (the exclusion order's divisors
// included), a point outside G, and −x(g), a twist x-coordinate the x-only
// chain alone would accept.
func FuzzUnmarshalG(f *testing.F) {
	p := Test()
	g := p.Generator()
	f.Add(g.Marshal())
	f.Add(p.OneG().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x02})
	f.Add(bytes.Repeat([]byte{0xFF}, p.GByteLen()))
	f.Add((&G{p: p, pt: nonSubgroupPoint(p)}).Marshal())
	gk := g.Exp(big.NewInt(0x5EED))
	f.Add(gk.Marshal())
	for _, d := range []int64{2, 4, 8, 16, 3, 7, 9, 21, 63, 27} {
		tp := pointOfOrder(f, p, d)
		f.Add((&G{p: p, pt: tp}).Marshal())
		f.Add((&G{p: p, pt: p.add(gk.pt, tp)}).Marshal())
	}
	twist := g.Marshal()
	new(big.Int).Sub(p.Q, g.pt.x).FillBytes(twist[1:])
	f.Add(twist)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := checkDecodersAgree(t, p, data)
		if g == nil {
			return
		}
		back, err := p.UnmarshalG(g.Marshal())
		if err != nil || !back.Equal(g) {
			t.Fatal("accepted point does not round-trip")
		}
	})
}

// FuzzPairKernels cross-checks the pairing kernel (projective NAF Miller
// loop, Lucas final exponentiation, batch-inverted preparation and its
// walk, the two-loop PairMul) against the affine reference functions on
// random subgroup points g^a, g^b, g^k, plus GT exponentiation and the
// signed-residue MultiExp by the same scalars. The scalars are arbitrary
// uint64s — including 0 and values ≥ R — so normalization and the
// identity branches are fuzzed along with the group operations. Chain independence of the
// reduced Tate pairing makes bit-identical output the correct expectation,
// not just equality up to subgroup structure.
func FuzzPairKernels(f *testing.F) {
	p := Test()
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(1), uint64(1))
	f.Add(uint64(2), uint64(3), uint64(5))
	f.Add(^uint64(0), ^uint64(0)>>1, uint64(0xDEADBEEF))
	g := p.Generator()
	f.Fuzz(func(t *testing.T, a64, b64, k64 uint64) {
		a := new(big.Int).SetUint64(a64)
		b := new(big.Int).SetUint64(b64)
		k := new(big.Int).SetUint64(k64)
		ga, gb := g.Exp(a), g.Exp(b)
		if !ga.Equal(g.ExpReference(a)) || !gb.Equal(g.ExpReference(b)) {
			t.Fatal("Jacobian NAF scalar multiplication disagrees with affine reference")
		}
		opt := p.MustPair(ga, gb)
		ref, err := p.PairReference(ga, gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(opt.Marshal(), ref.Marshal()) {
			t.Fatal("projective Miller loop disagrees with affine reference")
		}
		prep, err := p.Prepare(ga).Pair(gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prep.Marshal(), ref.Marshal()) {
			t.Fatal("prepared pairing disagrees with affine reference")
		}
		if !opt.Exp(k).Equal(opt.ExpReference(k)) {
			t.Fatal("Lucas GT exponentiation disagrees with square-and-multiply")
		}
		gk := g.Exp(k)
		mul, err := p.Prepare(ga).PairMul(gb, gk, ga)
		if err != nil {
			t.Fatal(err)
		}
		ref2, err := p.PairReference(gk, ga)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mul.Marshal(), ref.Mul(ref2).Marshal()) {
			t.Fatal("PairMul disagrees with the product of affine reference pairings")
		}
		negA := new(big.Int).Neg(a)
		multi, err := p.MultiExp([]*G{ga, gb, g}, []*big.Int{k, negA, b})
		if err != nil {
			t.Fatal(err)
		}
		want := ga.ExpReference(k).Mul(gb.ExpReference(negA)).Mul(g.ExpReference(b))
		if !bytes.Equal(multi.Marshal(), want.Marshal()) {
			t.Fatal("MultiExp disagrees with the product of affine reference ladders")
		}
	})
}

// FuzzUnmarshalGT mirrors FuzzUnmarshalG for the target group.
func FuzzUnmarshalGT(f *testing.F) {
	p := Test()
	f.Add(p.GTGenerator().Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, p.GTByteLen()))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := p.UnmarshalGT(data)
		if err != nil {
			return
		}
		if !p.fp2Exp(v.v, p.R).isOne() {
			t.Fatal("accepted GT element outside the subgroup")
		}
		back, err := p.UnmarshalGT(v.Marshal())
		if err != nil || !back.Equal(v) {
			t.Fatal("accepted GT element does not round-trip")
		}
	})
}
