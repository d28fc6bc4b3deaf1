package pairing

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func TestPairProdMatchesProductOfPairs(t *testing.T) {
	p := Test()
	g := p.Generator()
	for _, n := range []int{0, 1, 2, 5} {
		as := make([]*G, n)
		bs := make([]*G, n)
		want := p.OneGT()
		for i := 0; i < n; i++ {
			a, _ := p.RandomScalar(rand.Reader)
			b, _ := p.RandomScalar(rand.Reader)
			as[i] = g.Exp(a)
			bs[i] = g.Exp(b)
			want = want.Mul(p.MustPair(as[i], bs[i]))
		}
		got, err := p.PairProd(as, bs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d: PairProd ≠ Π Pair", n)
		}
	}
}

func TestPairProdSkipsIdentity(t *testing.T) {
	p := Test()
	g := p.Generator()
	got, err := p.PairProd([]*G{p.OneG(), g}, []*G{g, g})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p.MustPair(g, g)) {
		t.Fatal("identity pair contributed")
	}
}

func TestPairProdValidatesInput(t *testing.T) {
	p := Test()
	g := p.Generator()
	if _, err := p.PairProd([]*G{g}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	p2, err := GenerateParams(40, 80, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PairProd([]*G{p2.Generator()}, []*G{g}); err == nil {
		t.Fatal("mixed params accepted")
	}
}

func TestFixedBaseExpMatchesExp(t *testing.T) {
	p := Test()
	g := p.Generator()
	f := func(k64 uint64) bool {
		k := new(big.Int).SetUint64(k64)
		return p.FixedBaseExp(k).Equal(g.Exp(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Edge cases.
	for _, k := range []*big.Int{
		new(big.Int),                         // 0
		big.NewInt(1),                        // 1
		new(big.Int).Sub(p.R, big.NewInt(1)), // r−1
		new(big.Int).Set(p.R),                // r ≡ 0
		new(big.Int).Neg(big.NewInt(5)),      // negative
	} {
		if !p.FixedBaseExp(k).Equal(g.Exp(k)) {
			t.Fatalf("FixedBaseExp(%v) ≠ Exp", k)
		}
	}
}

func TestFixedBaseExpFullRangeDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale table in -short mode")
	}
	p := Default()
	k, err := p.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Generator().ExpReference(k).Marshal()
	if !bytes.Equal(p.Generator().Exp(k).Marshal(), want) {
		t.Fatal("G.Exp disagrees with the reference ladder at paper scale")
	}
	if !bytes.Equal(p.FixedBaseExp(k).Marshal(), want) {
		t.Fatal("FixedBaseExp disagrees with the reference ladder at paper scale")
	}
}

// TestTableExpAllKernels pins FixedBaseExp and ExpTable.Exp bit-identical
// to the affine reference ladder: the Montgomery comb and
// G.ExpReference must agree byte for byte on random and edge-case scalars.
func TestTableExpAllKernels(t *testing.T) {
	p := Test()
	a, _ := p.RandomScalar(rand.Reader)
	base := p.Generator().Exp(a)
	scalars := []*big.Int{
		new(big.Int),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p.R, big.NewInt(1)),
		new(big.Int).Set(p.R),
		new(big.Int).Neg(big.NewInt(5)),
	}
	for i := 0; i < 8; i++ {
		k, _ := p.RandomScalar(rand.Reader)
		scalars = append(scalars, k)
	}
	table := p.PrepareExp(base)
	for _, k := range scalars {
		if got, want := p.FixedBaseExp(k).Marshal(), p.Generator().ExpReference(k).Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("FixedBaseExp(%v) disagrees with the reference", k)
		}
		if got, want := table.Exp(k).Marshal(), base.ExpReference(k).Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("ExpTable.Exp(%v) disagrees with the reference", k)
		}
	}
}

// TestCombExpMontAllocs pins the zero-allocation contract of the limb comb
// at paper scale: once the table exists and the scalar is reduced, an
// exponentiation touches no heap — the only allocations in the public
// FixedBaseExp/Exp wrappers are the scalar reduction and the big.Int
// result boundary.
func TestCombExpMontAllocs(t *testing.T) {
	p := Default()
	k, _ := p.RandomScalar(rand.Reader)
	kk := new(big.Int).Mod(k, p.R)
	fixed := p.fixedTable().montRows(p)
	a, _ := p.RandomScalar(rand.Reader)
	comb := p.PrepareExp(p.Generator().Exp(a)).mont
	var out montAffine
	if a := testing.AllocsPerRun(20, func() { p.combExpMont(&out, fixed, kk) }); a != 0 {
		t.Fatalf("combExpMont over the generator table allocates %v/op", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.combExpMont(&out, comb, kk) }); a != 0 {
		t.Fatalf("combExpMont over an ExpTable comb allocates %v/op", a)
	}
}

func TestPairProdEmptyInputs(t *testing.T) {
	p := Test()
	for _, tc := range []struct {
		name   string
		as, bs []*G
	}{
		{"nil-nil", nil, nil},
		{"empty-empty", []*G{}, []*G{}},
		{"nil-empty", nil, []*G{}},
	} {
		got, err := p.PairProd(tc.as, tc.bs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.IsOne() {
			t.Fatalf("%s: empty product ≠ 1", tc.name)
		}
	}
}

func TestPairProdIdentityPlacement(t *testing.T) {
	p := Test()
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	b, _ := p.RandomScalar(rand.Reader)
	ga, gb := g.Exp(a), g.Exp(b)
	want := p.MustPair(ga, gb)
	inf := p.OneG()
	for _, tc := range []struct {
		name   string
		as, bs []*G
	}{
		{"identity-second-slot", []*G{ga, g}, []*G{gb, inf}},
		{"identity-interleaved", []*G{inf, ga, inf}, []*G{g, gb, g}},
		{"identity-both-slots", []*G{ga, inf}, []*G{gb, inf}},
	} {
		got, err := p.PairProd(tc.as, tc.bs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: identity pair contributed", tc.name)
		}
	}
	// All-identity input collapses to 1.
	got, err := p.PairProd([]*G{inf, inf}, []*G{inf, g})
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsOne() {
		t.Fatal("all-identity product ≠ 1")
	}
}

func TestPairProdMismatchedLengths(t *testing.T) {
	p := Test()
	g := p.Generator()
	for _, tc := range []struct {
		name   string
		as, bs []*G
	}{
		{"more-as", []*G{g, g}, []*G{g}},
		{"more-bs", []*G{g}, []*G{g, g}},
		{"nil-vs-one", nil, []*G{g}},
	} {
		if _, err := p.PairProd(tc.as, tc.bs); err == nil {
			t.Fatalf("%s: length mismatch accepted", tc.name)
		}
	}
}

func TestPairProdAgreesAtLargerSizes(t *testing.T) {
	p := Test()
	g := p.Generator()
	for _, n := range []int{8, 13} {
		as := make([]*G, n)
		bs := make([]*G, n)
		want := p.OneGT()
		for i := 0; i < n; i++ {
			a, _ := p.RandomScalar(rand.Reader)
			b, _ := p.RandomScalar(rand.Reader)
			as[i] = g.Exp(a)
			bs[i] = g.Exp(b)
			want = want.Mul(p.MustPair(as[i], bs[i]))
		}
		got, err := p.PairProd(as, bs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d: PairProd ≠ Π Pair", n)
		}
	}
}

func TestPrepareExpMatchesExp(t *testing.T) {
	p := Test()
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	base := g.Exp(a)
	tbl := p.PrepareExp(base)
	f := func(k64 uint64) bool {
		k := new(big.Int).SetUint64(k64)
		return tbl.Exp(k).Equal(base.Exp(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	for _, k := range []*big.Int{
		new(big.Int),                         // 0
		big.NewInt(1),                        // 1
		new(big.Int).Sub(p.R, big.NewInt(1)), // r−1
		new(big.Int).Set(p.R),                // r ≡ 0
		new(big.Int).Neg(big.NewInt(5)),      // negative
	} {
		if !tbl.Exp(k).Equal(base.Exp(k)) {
			t.Fatalf("ExpTable.Exp(%v) ≠ Exp", k)
		}
	}
	// Identity base: every power is the identity.
	infTbl := p.PrepareExp(p.OneG())
	if !infTbl.Exp(big.NewInt(7)).IsOne() {
		t.Fatal("ExpTable over identity base not identity")
	}
}
