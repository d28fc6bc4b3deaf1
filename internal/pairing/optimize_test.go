package pairing

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

// pairProductReference is e(P, q)·e(a, b) from PairReference alone.
func pairProductReference(t *testing.T, p *Params, P, q, a, b *G) *GT {
	t.Helper()
	e1, err := p.PairReference(P, q)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.PairReference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return e1.Mul(e2)
}

func TestPairMulMatchesProductOfPairs(t *testing.T) {
	p := Test()
	g := p.Generator()
	for i := 0; i < 8; i++ {
		var pts [4]*G
		for j := range pts {
			k, _ := p.RandomScalar(rand.Reader)
			pts[j] = g.Exp(k)
		}
		got, err := p.Prepare(pts[0]).PairMul(pts[1], pts[2], pts[3])
		if err != nil {
			t.Fatal(err)
		}
		want := pairProductReference(t, p, pts[0], pts[1], pts[2], pts[3])
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("iteration %d: PairMul ≠ PairReference · PairReference", i)
		}
	}
	// The same point in every slot: the computed loop's chord steps meet
	// the running point's multiples of P exactly as the prepared ones do.
	got, err := p.Prepare(g).PairMul(g, g, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := pairProductReference(t, p, g, g, g, g); !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("PairMul(g; g, g, g) ≠ e(g, g)²")
	}
}

// TestPairMulSkipsIdentity checks that an identity pair contributes
// nothing: with either factor dropped, PairMul is exactly the remaining
// pairing as Pair computes it.
func TestPairMulSkipsIdentity(t *testing.T) {
	p := Test()
	g := p.Generator()
	k, _ := p.RandomScalar(rand.Reader)
	h := g.Exp(k)
	want := p.MustPair(g, h)
	inf := p.OneG()
	for _, tc := range []struct {
		name       string
		P, q, a, b *G
	}{
		{"first-factor", inf, g, g, h},
		{"second-factor", g, h, inf, g},
	} {
		got, err := p.Prepare(tc.P).PairMul(tc.q, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: identity pair contributed", tc.name)
		}
	}
}

// TestPairMulIdentityPlacement puts the identity in each argument and in
// pairs of arguments: each drops its own factor, and with both factors
// dropped the product is 1.
func TestPairMulIdentityPlacement(t *testing.T) {
	p := Test()
	g := p.Generator()
	ka, _ := p.RandomScalar(rand.Reader)
	kb, _ := p.RandomScalar(rand.Reader)
	P, q, a, b := g, g.Exp(ka), g.Exp(kb), g.Exp(new(big.Int).Add(ka, kb))
	inf := p.OneG()
	for _, tc := range []struct {
		name       string
		P, q, a, b *G
	}{
		{"P", inf, q, a, b},
		{"q", P, inf, a, b},
		{"a", P, q, inf, b},
		{"b", P, q, a, inf},
		{"P-and-a", inf, q, inf, b},
		{"q-and-b", P, inf, a, inf},
		{"all", inf, inf, inf, inf},
	} {
		got, err := p.Prepare(tc.P).PairMul(tc.q, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := pairProductReference(t, p, tc.P, tc.q, tc.a, tc.b)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("identity in %s: PairMul ≠ the product of the remaining pairings", tc.name)
		}
		if (tc.P.IsOne() || tc.q.IsOne()) && (tc.a.IsOne() || tc.b.IsOne()) && !got.IsOne() {
			t.Fatalf("identity in %s: both factors dropped but the product ≠ 1", tc.name)
		}
	}
}

func TestPairMulValidatesInput(t *testing.T) {
	p := Test()
	g := p.Generator()
	pre := p.Prepare(g)
	for _, args := range [][3]*G{{nil, g, g}, {g, nil, g}, {g, g, nil}} {
		if _, err := pre.PairMul(args[0], args[1], args[2]); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("nil argument: got %v, want ErrBadEncoding", err)
		}
	}
	p2, err := GenerateParams(40, 80, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h := p2.Generator()
	for _, args := range [][3]*G{{h, g, g}, {g, h, g}, {g, g, h}} {
		if _, err := pre.PairMul(args[0], args[1], args[2]); !errors.Is(err, ErrMixedParams) {
			t.Fatalf("foreign argument: got %v, want ErrMixedParams", err)
		}
	}
	if _, err := p2.Prepare(h).PairMul(g, g, g); !errors.Is(err, ErrMixedParams) {
		t.Fatalf("foreign preparation: got %v, want ErrMixedParams", err)
	}
}

// multiExpReference is Π bases[i]^ks[i] from G.ExpReference alone.
func multiExpReference(p *Params, bases []*G, ks []*big.Int) *G {
	acc := p.OneG()
	for i := range bases {
		acc = acc.Mul(bases[i].ExpReference(ks[i]))
	}
	return acc
}

// TestMultiExpMatchesReference pins MultiExp byte-identical to the product
// of reference ladders: each edge-case scalar alone on a random base, all
// of them at once across distinct bases and the identity, and the read
// workload's small signed coefficients.
func TestMultiExpMatchesReference(t *testing.T) {
	p := Test()
	g := p.Generator()
	halfDown := new(big.Int).Rsh(p.R, 1)                // (R−1)/2
	halfUp := new(big.Int).Add(halfDown, big.NewInt(1)) // (R+1)/2
	scalars := []*big.Int{
		new(big.Int),
		big.NewInt(1),
		new(big.Int).Sub(p.R, big.NewInt(1)),
		halfDown,
		halfUp,
		big.NewInt(-5),
		new(big.Int).Neg(halfUp),
		new(big.Int).Set(p.R),
		new(big.Int).Add(p.R, big.NewInt(7)),
		new(big.Int).Mul(p.R, p.H),
	}
	for i := 0; i < 4; i++ {
		k, _ := p.RandomScalar(rand.Reader)
		scalars = append(scalars, k)
	}
	check := func(name string, bases []*G, ks []*big.Int) {
		t.Helper()
		before := make([]string, len(ks))
		for i, k := range ks {
			before[i] = k.String()
		}
		got, err := p.MultiExp(bases, ks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := multiExpReference(p, bases, ks); !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("%s: MultiExp ≠ Π ExpReference", name)
		}
		for i, k := range ks {
			if k.String() != before[i] {
				t.Fatalf("%s: MultiExp changed exponent %d", name, i)
			}
		}
	}
	bases := make([]*G, len(scalars))
	for i, k := range scalars {
		a, _ := p.RandomScalar(rand.Reader)
		bases[i] = g.Exp(a)
		check(fmt.Sprintf("k=%v", k), bases[i:i+1], scalars[i:i+1])
	}
	check("all scalars", bases, scalars)
	bases[3] = p.OneG()
	check("identity base", bases, scalars)
	check("only identity", []*G{p.OneG()}, []*big.Int{big.NewInt(3)})
	// The same base twice, with exponents that cancel and that double.
	check("cancelling", []*G{g, g}, []*big.Int{big.NewInt(9), big.NewInt(-9)})
	check("doubling", []*G{g, g}, []*big.Int{big.NewInt(9), big.NewInt(9)})
	read := []*big.Int{big.NewInt(18), big.NewInt(-45), big.NewInt(60), big.NewInt(-45), big.NewInt(18), big.NewInt(-3)}
	check("read coefficients", bases[:len(read)], read)
}

func TestMultiExpValidatesInput(t *testing.T) {
	p := Test()
	g := p.Generator()
	one := big.NewInt(1)
	for _, tc := range []struct {
		name  string
		bases []*G
		ks    []*big.Int
	}{
		{"nil-nil", nil, nil},
		{"empty-empty", []*G{}, []*big.Int{}},
	} {
		got, err := p.MultiExp(tc.bases, tc.ks)
		if err != nil || !got.IsOne() {
			t.Fatalf("%s: empty product = %v, %v; want the identity", tc.name, got, err)
		}
	}
	for _, tc := range []struct {
		name  string
		bases []*G
		ks    []*big.Int
	}{
		{"more-bases", []*G{g, g}, []*big.Int{one}},
		{"more-exponents", []*G{g}, []*big.Int{one, one}},
		{"nil-vs-one", nil, []*big.Int{one}},
		{"nil-base", []*G{nil}, []*big.Int{one}},
		{"nil-exponent", []*G{g}, []*big.Int{nil}},
	} {
		if _, err := p.MultiExp(tc.bases, tc.ks); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("%s: got %v, want ErrBadEncoding", tc.name, err)
		}
	}
	p2, err := GenerateParams(40, 80, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MultiExp([]*G{g, p2.Generator()}, []*big.Int{one, one}); !errors.Is(err, ErrMixedParams) {
		t.Fatalf("mixed params: got %v, want ErrMixedParams", err)
	}
	if _, err := p.MultiExp([]*G{p2.OneG()}, []*big.Int{new(big.Int)}); !errors.Is(err, ErrMixedParams) {
		t.Fatalf("foreign identity with a zero exponent: got %v, want ErrMixedParams", err)
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
