package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func TestPreparedPairMatchesPair(t *testing.T) {
	p := Test()
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	pre := p.prepare(g.Exp(a))
	f := func(k64 uint64) bool {
		q := g.Exp(new(big.Int).SetUint64(k64))
		got, err := pre.Pair(q)
		if err != nil {
			return false
		}
		return got.Equal(p.MustPair(g.Exp(a), q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPreparedPairIdentityCases(t *testing.T) {
	p := Test()
	g := p.Generator()
	preInf := p.prepare(p.OneG())
	got, err := preInf.Pair(g)
	if err != nil || !got.IsOne() {
		t.Fatalf("e(∞, g) = %v, %v", got, err)
	}
	pre := p.prepare(g)
	got, err = pre.Pair(p.OneG())
	if err != nil || !got.IsOne() {
		t.Fatalf("e(g, ∞) = %v, %v", got, err)
	}
}

func TestPreparedPairRejectsMixedParams(t *testing.T) {
	p := Test()
	p2, err := GenerateParams(40, 80, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pre := p.prepare(p.Generator())
	if _, err := pre.Pair(p2.Generator()); err == nil {
		t.Fatal("mixed params accepted")
	}
}

func TestPreparedPairBilinear(t *testing.T) {
	p := Test()
	g := p.Generator()
	pre := p.prepare(g)
	a, _ := p.RandomScalar(rand.Reader)
	b, _ := p.RandomScalar(rand.Reader)
	e1, err := pre.Pair(g.Exp(a))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := pre.Pair(g.Exp(b))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := pre.Pair(g.Exp(new(big.Int).Add(a, b)))
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Mul(e2).Equal(sum) {
		t.Fatal("prepared pairing not bilinear in second argument")
	}
}

func TestPreparedPairBothIdentity(t *testing.T) {
	p := Test()
	preInf := p.prepare(p.OneG())
	got, err := preInf.Pair(p.OneG())
	if err != nil || !got.IsOne() {
		t.Fatalf("e(∞, ∞) = %v, %v", got, err)
	}
}

func TestPreparedPairAgreesWithNSinglePairings(t *testing.T) {
	p := Test()
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	ga := g.Exp(a)
	pre := p.prepare(ga)
	const n = 6
	for i := 0; i < n; i++ {
		k, _ := p.RandomScalar(rand.Reader)
		q := g.Exp(k)
		got, err := pre.Pair(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p.MustPair(ga, q)) {
			t.Fatalf("pairing %d: prepared ≠ plain", i)
		}
	}
}

func TestPreparedPairRejectsNil(t *testing.T) {
	p := Test()
	pre := p.prepare(p.Generator())
	if _, err := pre.Pair(nil); err == nil {
		t.Fatal("nil second argument accepted")
	}
}
