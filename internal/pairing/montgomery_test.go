package pairing

import (
	"bytes"
	"math/big"
	"testing"
)

// allKernels are the two selectable kernels in dispatch order.
var allKernels = []struct {
	name   string
	kernel Kernel
}{
	{"montgomery", KernelMontgomery},
	{"reference", KernelReference},
}

// kernelOutputs runs every kernel-dispatched operation on p for scalars a
// and b and returns the marshalled results keyed by operation name.
func kernelOutputs(t *testing.T, p *Params, a, b *big.Int) map[string][]byte {
	t.Helper()
	k := new(big.Int).Mul(a, b)
	ga, gb := p.Generator().Exp(a), p.Generator().Exp(b)
	e := p.MustPair(ga, gb)
	pp, err := p.Prepare(ga).Pair(gb)
	if err != nil {
		t.Fatalf("prepared pair: %v", err)
	}
	prod, err := p.PairProd([]*G{ga, gb}, []*G{gb, ga})
	if err != nil {
		t.Fatalf("PairProd: %v", err)
	}
	return map[string][]byte{
		"Pair":           e.Marshal(),
		"PreparedG.Pair": pp.Marshal(),
		"PairProd":       prod.Marshal(),
		"G.Exp":          ga.Exp(k).Marshal(),
		"GT.Exp":         e.Exp(k).Marshal(),
		"FixedBaseExp":   p.FixedBaseExp(k).Marshal(),
		"ExpTable.Exp":   p.PrepareExp(ga).Exp(k).Marshal(),
	}
}

// assertKernelsAgree pins every kernel-dispatched operation byte-identical
// across the Montgomery and reference kernels on independent clones of base.
func assertKernelsAgree(t *testing.T, base *Params, a, b *big.Int) {
	t.Helper()
	mont := kernelOutputs(t, kernelClone(t, base, KernelMontgomery), a, b)
	ref := kernelOutputs(t, kernelClone(t, base, KernelReference), a, b)
	for op, want := range ref {
		if !bytes.Equal(mont[op], want) {
			t.Fatalf("%s: montgomery differs from reference (a=%v b=%v)", op, a, b)
		}
	}
}

// TestPairMatchesAllKernels pins reduced pairings, prepared-pairing walks,
// PairProd, G/GT exponentiation, and both table exponentiations
// byte-identical across the Montgomery and affine-reference kernels.
func TestPairMatchesAllKernels(t *testing.T) {
	for _, sc := range [][2]int64{{98765, 43210}, {1, 1}, {2, 3}, {7919, 7919}} {
		assertKernelsAgree(t, Test(), big.NewInt(sc[0]), big.NewInt(sc[1]))
	}
}

// TestPairMatchesAllKernelsPaperScale repeats the cross-kernel pin at the
// 512-bit default field, where the Montgomery context runs eight limbs.
func TestPairMatchesAllKernelsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale kernels in -short mode")
	}
	assertKernelsAgree(t, Default(), big.NewInt(31337), big.NewInt(271828))
}

// TestSerializationByteIdenticalAcrossKernels is the wire-format guard: the
// bytes G.Marshal and GT.Marshal emit, and the elements UnmarshalG /
// UnmarshalGT accept, are identical whichever kernel produced them — the
// Montgomery↔canonical conversion at the boundary is exact.
func TestSerializationByteIdenticalAcrossKernels(t *testing.T) {
	base := Test()
	clones := make(map[string]*Params, len(allKernels))
	for _, kc := range allKernels {
		clones[kc.name] = kernelClone(t, base, kc.kernel)
	}
	for i := int64(0); i < 16; i++ {
		k := new(big.Int).Mul(big.NewInt(i), big.NewInt(999983))
		var gBytes, gtBytes []byte
		for _, kc := range allKernels {
			p := clones[kc.name]
			gB := p.Generator().Exp(k).Marshal()
			gtB := p.GTGenerator().Exp(k).Marshal()
			if kc.kernel == KernelMontgomery {
				gBytes, gtBytes = gB, gtB
				continue
			}
			if !bytes.Equal(gB, gBytes) {
				t.Fatalf("k=%v: %s G bytes differ from montgomery", k, kc.name)
			}
			if !bytes.Equal(gtB, gtBytes) {
				t.Fatalf("k=%v: %s GT bytes differ from montgomery", k, kc.name)
			}
		}
		// Round trips decode to equal elements under every kernel.
		for _, kc := range allKernels {
			p := clones[kc.name]
			g, err := p.UnmarshalG(gBytes)
			if err != nil {
				t.Fatalf("k=%v: %s UnmarshalG: %v", k, kc.name, err)
			}
			if !bytes.Equal(g.Marshal(), gBytes) {
				t.Fatalf("k=%v: %s G round trip drifted", k, kc.name)
			}
			if i != 0 { // zero GT exponent marshals to 1, still valid
				gt, err := p.UnmarshalGT(gtBytes)
				if err != nil {
					t.Fatalf("k=%v: %s UnmarshalGT: %v", k, kc.name, err)
				}
				if !bytes.Equal(gt.Marshal(), gtBytes) {
					t.Fatalf("k=%v: %s GT round trip drifted", k, kc.name)
				}
			}
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
	pre := p.Prepare(ga)
	if a := testing.AllocsPerRun(5, func() {
		if _, err := pre.Pair(gb); err != nil {
			t.Fatal(err)
		}
	}); a > pairAllocBudget {
		t.Fatalf("PreparedG.Pair allocates %v/op, budget %d", a, pairAllocBudget)
	}
}
