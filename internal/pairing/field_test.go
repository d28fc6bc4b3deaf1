package pairing

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// fp2Value adapts fp2 to testing/quick generation over the Test() field.
type fp2Value struct {
	A, B uint64
}

func (v fp2Value) toFp2(p *Params) fp2 {
	a := new(big.Int).SetUint64(v.A)
	a.Mod(a, p.Q)
	b := new(big.Int).SetUint64(v.B)
	b.Mod(b, p.Q)
	return fp2{a: a, b: b}
}

// Generate implements quick.Generator so coordinates span the full field.
func (fp2Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(fp2Value{A: r.Uint64(), B: r.Uint64()})
}

var _ quick.Generator = fp2Value{}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200}
}

func TestFp2MulCommutative(t *testing.T) {
	p := Test()
	f := func(x, y fp2Value) bool {
		a, b := x.toFp2(p), y.toFp2(p)
		return p.fp2Mul(a, b).equal(p.fp2Mul(b, a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestFp2MulAssociative(t *testing.T) {
	p := Test()
	f := func(x, y, z fp2Value) bool {
		a, b, c := x.toFp2(p), y.toFp2(p), z.toFp2(p)
		return p.fp2Mul(p.fp2Mul(a, b), c).equal(p.fp2Mul(a, p.fp2Mul(b, c)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestFp2SquareMatchesMul(t *testing.T) {
	p := Test()
	f := func(x fp2Value) bool {
		a := x.toFp2(p)
		return p.fp2Square(a).equal(p.fp2Mul(a, a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestFp2InvIsInverse(t *testing.T) {
	p := Test()
	f := func(x fp2Value) bool {
		a := x.toFp2(p)
		if a.isZero() {
			return true
		}
		return p.fp2Mul(a, p.fp2Inv(a)).isOne()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestFp2ConjIsFrobenius(t *testing.T) {
	p := Test()
	f := func(x fp2Value) bool {
		a := x.toFp2(p)
		return p.fp2Exp(a, p.Q).equal(p.fp2Conj(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFp2ExpAddsExponents(t *testing.T) {
	p := Test()
	f := func(x fp2Value, e1, e2 uint32) bool {
		a := x.toFp2(p)
		if a.isZero() {
			return true
		}
		k1 := new(big.Int).SetUint64(uint64(e1))
		k2 := new(big.Int).SetUint64(uint64(e2))
		lhs := p.fp2Mul(p.fp2Exp(a, k1), p.fp2Exp(a, k2))
		rhs := p.fp2Exp(a, new(big.Int).Add(k1, k2))
		return lhs.equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFp2UnitaryExpMatchesGeneric(t *testing.T) {
	p := Test()
	// Build unitary elements as pairing outputs.
	g := p.Generator()
	e := p.pair(g.pt, g.pt)
	f := func(e32 uint32) bool {
		k := new(big.Int).SetUint64(uint64(e32))
		return p.fp2ExpUnitary(e, k).equal(p.fp2Exp(e, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSqrtRoundTrip(t *testing.T) {
	p := Test()
	f := func(x64 uint64) bool {
		x := new(big.Int).SetUint64(x64)
		x.Mod(x, p.Q)
		sq := new(big.Int).Mul(x, x)
		sq.Mod(sq, p.Q)
		y, ok := p.sqrt(sq)
		if !ok {
			return false
		}
		y2 := new(big.Int).Mul(y, y)
		y2.Mod(y2, p.Q)
		return y2.Cmp(sq) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestSqrtRejectsNonResidue(t *testing.T) {
	p := Test()
	// −1 is a non-residue when q ≡ 3 (mod 4).
	minusOne := new(big.Int).Sub(p.Q, one)
	if _, ok := p.sqrt(minusOne); ok {
		t.Fatal("sqrt(−1) succeeded; q ≢ 3 mod 4?")
	}
}

// TestSqrtMatchesReference pins the kernel square root to the math/big one
// at both scales: the same verdict and the same root for 0, 1, q−1 (a
// non-residue), and random squares and random elements, about half of them
// non-residues.
func TestSqrtMatchesReference(t *testing.T) {
	for name, p := range map[string]*Params{"test": Test(), "default": Default()} {
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(17))
			vals := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(p.Q, one)}
			for i := 0; i < 32; i++ {
				x := new(big.Int).Rand(rnd, p.Q)
				vals = append(vals, x, new(big.Int).Mod(new(big.Int).Mul(x, x), p.Q))
			}
			for _, v := range vals {
				got, ok := p.sqrt(v)
				want, wantOK := p.sqrtReference(v)
				if ok != wantOK || (ok && got.Cmp(want) != 0) {
					t.Fatalf("sqrt(%v) = %v, %v; sqrtReference = %v, %v", v, got, ok, want, wantOK)
				}
			}
		})
	}
}
