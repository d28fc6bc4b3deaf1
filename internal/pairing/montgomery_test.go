package pairing

import (
	"bytes"
	"math/big"
	"testing"
)

// fastOutputs runs every fast operation on p for scalars a and b and
// returns the marshalled results keyed by operation name.
func fastOutputs(t *testing.T, p *Params, a, b *big.Int) map[string][]byte {
	t.Helper()
	k := new(big.Int).Mul(a, b)
	ga, gb := p.Generator().Exp(a), p.Generator().Exp(b)
	e := p.MustPair(ga, gb)
	pp, err := p.prepare(ga).Pair(gb)
	if err != nil {
		t.Fatalf("prepared pair: %v", err)
	}
	prod, err := p.prepare(ga).PairMul(gb, gb, ga)
	if err != nil {
		t.Fatalf("PairMul: %v", err)
	}
	multi, err := p.MultiExp([]*G{ga, gb}, []*big.Int{k, new(big.Int).Neg(a)})
	if err != nil {
		t.Fatalf("MultiExp: %v", err)
	}
	return map[string][]byte{
		"Pair":              e.Marshal(),
		"PreparedG.Pair":    pp.Marshal(),
		"PreparedG.PairMul": prod.Marshal(),
		"MultiExp":          multi.Marshal(),
		"G.Exp":             ga.Exp(k).Marshal(),
		"GT.Exp":            e.Exp(k).Marshal(),
		"FixedBaseExp":      p.FixedBaseExp(k).Marshal(),
		"ExpTable.Exp":      p.prepareExp(ga).Exp(k).Marshal(),
	}
}

// referenceOutputs computes what fastOutputs should return with the
// reference functions alone: PairReference, G.ExpReference and
// GT.ExpReference.
func referenceOutputs(t *testing.T, p *Params, a, b *big.Int) map[string][]byte {
	t.Helper()
	k := new(big.Int).Mul(a, b)
	g := p.Generator()
	ga, gb := g.ExpReference(a), g.ExpReference(b)
	e, err := p.PairReference(ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := p.PairReference(gb, ga)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"Pair":              e.Marshal(),
		"PreparedG.Pair":    e.Marshal(),
		"PreparedG.PairMul": e.Mul(swapped).Marshal(),
		"MultiExp":          ga.ExpReference(k).Mul(gb.ExpReference(new(big.Int).Neg(a))).Marshal(),
		"G.Exp":             ga.ExpReference(k).Marshal(),
		"GT.Exp":            e.ExpReference(k).Marshal(),
		"FixedBaseExp":      g.ExpReference(k).Marshal(),
		"ExpTable.Exp":      ga.ExpReference(k).Marshal(),
	}
}

// assertMatchesReference pins every fast operation byte-identical to the
// reference functions on p.
func assertMatchesReference(t *testing.T, p *Params, a, b *big.Int) {
	t.Helper()
	fast := fastOutputs(t, p, a, b)
	for op, want := range referenceOutputs(t, p, a, b) {
		if !bytes.Equal(fast[op], want) {
			t.Fatalf("%s differs from the reference (a=%v b=%v)", op, a, b)
		}
	}
}

// TestPairMatchesAllKernels pins reduced pairings, prepared-pairing walks,
// PairMul, MultiExp, G/GT exponentiation, and both table exponentiations
// byte-identical to the affine reference functions.
func TestPairMatchesAllKernels(t *testing.T) {
	for _, sc := range [][2]int64{{98765, 43210}, {1, 1}, {2, 3}, {7919, 7919}} {
		assertMatchesReference(t, Test(), big.NewInt(sc[0]), big.NewInt(sc[1]))
	}
}

// TestPairMatchesAllKernelsPaperScale repeats the pin at the 512-bit
// default field, where the Montgomery context runs eight limbs.
func TestPairMatchesAllKernelsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale reference in -short mode")
	}
	assertMatchesReference(t, Default(), big.NewInt(31337), big.NewInt(271828))
}

// TestSerializationByteIdenticalAcrossKernels is the wire-format guard: the
// bytes G.Marshal and GT.Marshal emit for fast results equal those of the
// reference results — the Montgomery↔canonical conversion at the boundary
// is exact — and UnmarshalG / UnmarshalGT accept them, round-trip them, and
// return elements that pass the reference subgroup predicates
// (mulScalarAffine for r·P, fp2Exp for v^r).
func TestSerializationByteIdenticalAcrossKernels(t *testing.T) {
	p := Test()
	gtGen, err := p.PairReference(p.Generator(), p.Generator())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 16; i++ {
		k := new(big.Int).Mul(big.NewInt(i), big.NewInt(999983))
		gBytes := p.Generator().Exp(k).Marshal()
		gtBytes := p.GTGenerator().Exp(k).Marshal()
		if !bytes.Equal(gBytes, p.Generator().ExpReference(k).Marshal()) {
			t.Fatalf("k=%v: G bytes differ from the reference", k)
		}
		if !bytes.Equal(gtBytes, gtGen.ExpReference(k).Marshal()) {
			t.Fatalf("k=%v: GT bytes differ from the reference", k)
		}
		g, err := p.UnmarshalG(gBytes)
		if err != nil {
			t.Fatalf("k=%v: UnmarshalG: %v", k, err)
		}
		if !bytes.Equal(g.Marshal(), gBytes) {
			t.Fatalf("k=%v: G round trip drifted", k)
		}
		if !p.mulScalarAffine(g.pt, p.R).inf {
			t.Fatalf("k=%v: decoded G fails the reference r·P check", k)
		}
		gt, err := p.UnmarshalGT(gtBytes)
		if err != nil {
			t.Fatalf("k=%v: UnmarshalGT: %v", k, err)
		}
		if !bytes.Equal(gt.Marshal(), gtBytes) {
			t.Fatalf("k=%v: GT round trip drifted", k)
		}
		if !p.fp2Exp(gt.v, p.R).isOne() {
			t.Fatalf("k=%v: decoded GT fails the reference v^r check", k)
		}
	}
}

// TestHotPathZeroBigIntAllocs pins the allocation contract of the
// Montgomery kernel at paper scale: the field primitives are allocation-free
// and a full Pair / prepared Pair performs only the handful of fixed
// boundary conversions (fp2m→fp2 plus the result wrapper) — zero per-step
// big.Int churn. The -benchmem benchmarks show the same numbers; this test
// fails the build if they regress.
func TestHotPathZeroBigIntAllocs(t *testing.T) {
	p := Default()
	c := p.fpc
	var x, y, z fpElement
	c.fromBig(&x, big.NewInt(123456789))
	c.fromBig(&y, big.NewInt(987654321))
	if a := testing.AllocsPerRun(100, func() { c.mul(&z, &x, &y) }); a != 0 {
		t.Fatalf("fpMul allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.square(&z, &x) }); a != 0 {
		t.Fatalf("fpSquare allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(10, func() { c.inv(&z, &x) }); a != 0 {
		t.Fatalf("fpInv allocates %v/op", a)
	}
	var xm, ym, zm fp2m
	xm.a, xm.b, ym.a, ym.b = x, y, y, x
	if a := testing.AllocsPerRun(100, func() { c.fp2mMul(&zm, &xm, &ym) }); a != 0 {
		t.Fatalf("fp2mMul allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.fp2mSquare(&zm, &xm) }); a != 0 {
		t.Fatalf("fp2mSquare allocates %v/op", a)
	}

	g := p.Generator()
	ga, gb := g.Exp(big.NewInt(31337)), g.Exp(big.NewInt(271828))
	// The only allocations in a full pairing are the boundary conversions:
	// two coordinates out of Montgomery form plus the fp2/GT wrappers.
	const pairAllocBudget = 8
	if a := testing.AllocsPerRun(5, func() { p.MustPair(ga, gb) }); a > pairAllocBudget {
		t.Fatalf("Pair allocates %v/op, budget %d", a, pairAllocBudget)
	}
	pre := p.prepare(ga)
	if a := testing.AllocsPerRun(5, func() {
		if _, err := pre.Pair(gb); err != nil {
			t.Fatal(err)
		}
	}); a > pairAllocBudget {
		t.Fatalf("PreparedG.Pair allocates %v/op, budget %d", a, pairAllocBudget)
	}
}
