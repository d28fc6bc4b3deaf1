package pairing

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// gValue adapts G elements to testing/quick over the Test() parameters:
// a random exponent of the generator.
type gValue struct {
	K uint64
}

func (gValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(gValue{K: r.Uint64()})
}

func (v gValue) toG(p *Params) *G {
	return p.Generator().Exp(new(big.Int).SetUint64(v.K))
}

func TestGroupLawClosedAndOnCurve(t *testing.T) {
	p := Test()
	f := func(x, y gValue) bool {
		a, b := x.toG(p), y.toG(p)
		s := a.Mul(b)
		return p.onCurve(s.pt) && p.inG(s.pt)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGroupCommutative(t *testing.T) {
	p := Test()
	f := func(x, y gValue) bool {
		a, b := x.toG(p), y.toG(p)
		return a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGroupAssociative(t *testing.T) {
	p := Test()
	f := func(x, y, z gValue) bool {
		a, b, c := x.toG(p), y.toG(p), z.toG(p)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGroupInverse(t *testing.T) {
	p := Test()
	f := func(x gValue) bool {
		a := x.toG(p)
		return a.Mul(a.Inv()).IsOne()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGroupIdentity(t *testing.T) {
	p := Test()
	f := func(x gValue) bool {
		a := x.toG(p)
		return a.Mul(p.OneG()).Equal(a) && p.OneG().Mul(a).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestExpHomomorphism(t *testing.T) {
	p := Test()
	g := p.Generator()
	f := func(a32, b32 uint32) bool {
		a := new(big.Int).SetUint64(uint64(a32))
		b := new(big.Int).SetUint64(uint64(b32))
		lhs := g.Exp(a).Mul(g.Exp(b))
		rhs := g.Exp(new(big.Int).Add(a, b))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestExpNegative(t *testing.T) {
	p := Test()
	g := p.Generator()
	k := big.NewInt(12345)
	if !g.Exp(new(big.Int).Neg(k)).Equal(g.Exp(k).Inv()) {
		t.Fatal("g^(−k) ≠ (g^k)⁻¹")
	}
}

func TestExpZeroAndOrder(t *testing.T) {
	p := Test()
	g := p.Generator()
	if !g.Exp(new(big.Int)).IsOne() {
		t.Fatal("g^0 ≠ 1")
	}
	if !g.Exp(p.R).IsOne() { // Exp reduces mod R, so this checks g^0 = 1
		t.Fatal("g^r (reduced to g^0) ≠ 1")
	}
	if !p.mulScalarAffine(g.pt, p.R).inf {
		t.Fatal("r·g ≠ ∞")
	}
	if !g.Exp(new(big.Int).Add(p.R, one)).Equal(g) {
		t.Fatal("g^(r+1) ≠ g")
	}
}

func TestDoublingConsistentWithAddition(t *testing.T) {
	p := Test()
	f := func(x gValue) bool {
		a := x.toG(p)
		if a.IsOne() {
			return true
		}
		return p.double(a.pt).equal(p.add(a.pt, a.pt))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestTwoTorsionHandled(t *testing.T) {
	p := Test()
	// (0, 0) is the 2-torsion point on y² = x³ + x: doubling must yield ∞.
	pt := point{x: new(big.Int), y: new(big.Int)}
	if !p.onCurve(pt) {
		t.Fatal("(0,0) should be on y² = x³ + x")
	}
	if !p.double(pt).inf {
		t.Fatal("2·(0,0) ≠ ∞")
	}
	if !p.add(pt, pt).inf {
		t.Fatal("(0,0) + (0,0) ≠ ∞")
	}
}

func TestGTExpHomomorphism(t *testing.T) {
	p := Test()
	e := p.GTGenerator()
	f := func(a32, b32 uint32) bool {
		a := new(big.Int).SetUint64(uint64(a32))
		b := new(big.Int).SetUint64(uint64(b32))
		return e.Exp(a).Mul(e.Exp(b)).Equal(e.Exp(new(big.Int).Add(a, b)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGTDivAndInv(t *testing.T) {
	p := Test()
	e := p.GTGenerator()
	a := e.Exp(big.NewInt(77))
	b := e.Exp(big.NewInt(33))
	if !a.Div(b).Equal(e.Exp(big.NewInt(44))) {
		t.Fatal("GT Div wrong")
	}
	if !a.Mul(a.Inv()).IsOne() {
		t.Fatal("GT Inv wrong")
	}
}
