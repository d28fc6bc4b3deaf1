package pairing

import (
	"math/big"
	"testing"
	"testing/quick"
)

// The Montgomery kernel's G ladder, mulScalarMont, runs on Jacobian
// coordinates; these tests pin it and its point formulas against the affine
// reference ladder.

func TestJacobianMatchesAffineScalarMult(t *testing.T) {
	p := Test()
	g := p.gen.pt
	f := func(k64 uint64) bool {
		k := new(big.Int).SetUint64(k64)
		return p.mulScalarMont(g, k).equal(p.mulScalarAffine(g, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestJacobianEdgeCases(t *testing.T) {
	p := Test()
	g := p.gen.pt
	cases := []*big.Int{
		new(big.Int),                         // 0 → ∞
		big.NewInt(1),                        // 1 → g
		big.NewInt(2),                        // doubling only
		big.NewInt(3),                        // double + add
		new(big.Int).Sub(p.R, big.NewInt(1)), // r−1 → −g
		new(big.Int).Set(p.R),                // r → ∞
		new(big.Int).Add(p.R, big.NewInt(1)), // r+1 → g
		new(big.Int).Set(p.H),                // the cofactor (raw, > r)
	}
	for _, k := range cases {
		want := p.mulScalarAffine(g, k)
		got := p.mulScalarMont(g, k)
		if !got.equal(want) {
			t.Fatalf("k=%v: jacobian %v ≠ affine %v", k, got, want)
		}
	}
	// Infinity base.
	if !p.mulScalarMont(infinity(), big.NewInt(7)).inf {
		t.Fatal("7·∞ ≠ ∞")
	}
	// Two-torsion base: (0,0) doubles to ∞.
	twoTor := point{x: new(big.Int), y: new(big.Int)}
	if !p.mulScalarMont(twoTor, big.NewInt(2)).inf {
		t.Fatal("2·(0,0) ≠ ∞ in jacobian path")
	}
	if !p.mulScalarMont(twoTor, big.NewInt(3)).equal(twoTor) {
		t.Fatal("3·(0,0) ≠ (0,0) in jacobian path")
	}
}

// montJacScaled lifts the affine pt to the Jacobian representative
// (λ²x, λ³y, λ), so the formulas see a Z coordinate other than one.
func montJacScaled(c *fpContext, pt point, lambda int64) montJac {
	a := c.montFromPoint(pt)
	var l, l2, l3 fpElement
	c.fromBig(&l, big.NewInt(lambda))
	c.mul(&l2, &l, &l)
	c.mul(&l3, &l2, &l)
	j := montJac{z: l}
	c.mul(&j.x, &a.x, &l2)
	c.mul(&j.y, &a.y, &l3)
	return j
}

func TestJacAddAffineOppositePoints(t *testing.T) {
	p := Test()
	c := p.fpc
	g := p.gen.pt
	ng := c.montFromPoint(p.neg(g))
	j := montJacScaled(c, g, 7)
	c.montJacAddAffine(&j, &ng)
	if !c.montJacIsInf(&j) {
		t.Fatal("g + (−g) ≠ ∞")
	}
	// Same point through mixed addition must fall back to doubling.
	ga := c.montFromPoint(g)
	j = montJacScaled(c, g, 7)
	c.montJacAddAffine(&j, &ga)
	if !c.montJacToPoint(&j).equal(p.double(g)) {
		t.Fatal("mixed add of equal points ≠ doubling")
	}
}

func TestJacRoundTrip(t *testing.T) {
	p := Test()
	c := p.fpc
	f := func(k64 uint64, lambda uint32) bool {
		k := new(big.Int).SetUint64(k64)
		pt := p.mulScalarAffine(p.gen.pt, k)
		if pt.inf {
			return true
		}
		j := montJacScaled(c, pt, int64(lambda)+1)
		return c.montJacToPoint(&j).equal(pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if !c.montJacToPoint(&montJac{}).inf {
		t.Fatal("∞ round trip failed")
	}
}
