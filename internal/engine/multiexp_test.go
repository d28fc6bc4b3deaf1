package engine

import (
	"crypto/rand"
	"math/big"
	"testing"

	"maacs/internal/pairing"
)

func TestDualExpMatchesNaive(t *testing.T) {
	p := pairing.Test()
	for trial := 0; trial < 8; trial++ {
		a, _, err := p.RandomG(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := p.RandomG(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		x, err := p.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		y, err := p.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := a.Exp(x).Mul(b.Exp(y))
		if got := DualExp(a, x, b, y); !got.Equal(want) {
			t.Fatalf("trial %d: DualExp diverged", trial)
		}
		// Negative exponent.
		negY := new(big.Int).Neg(y)
		want = a.Exp(x).Mul(b.Exp(negY))
		if got := DualExp(a, x, b, negY); !got.Equal(want) {
			t.Fatalf("trial %d: DualExp with negative exponent diverged", trial)
		}
	}
}

func TestDualExpEdgeExponents(t *testing.T) {
	p := pairing.Test()
	a, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	zero, one := new(big.Int), big.NewInt(1)
	if got := DualExp(a, zero, b, zero); !got.IsOne() {
		t.Fatal("a^0·b^0 ≠ 1")
	}
	if got := DualExp(a, one, b, zero); !got.Equal(a) {
		t.Fatal("a^1·b^0 ≠ a")
	}
	if got := DualExp(a, zero, b, one); !got.Equal(b) {
		t.Fatal("a^0·b^1 ≠ b")
	}
	// Same base twice: a^x·a^y = a^(x+y).
	x, _ := p.RandomScalar(rand.Reader)
	y, _ := p.RandomScalar(rand.Reader)
	sum := new(big.Int).Add(x, y)
	if got := DualExp(a, x, a, y); !got.Equal(a.Exp(sum)) {
		t.Fatal("a^x·a^y ≠ a^(x+y)")
	}
}

func TestDualExpGTMatchesNaive(t *testing.T) {
	p := pairing.Test()
	for trial := 0; trial < 8; trial++ {
		u, _, err := p.RandomGT(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := p.RandomGT(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := p.RandomScalar(rand.Reader)
		y, _ := p.RandomScalar(rand.Reader)
		want := u.ExpReference(x).Mul(v.ExpReference(y))
		if got := DualExpGT(u, x, v, y); !got.Equal(want) {
			t.Fatalf("trial %d: DualExpGT diverged from the reference", trial)
		}
	}
}

func TestDualExpMixedParamsPanics(t *testing.T) {
	p1 := pairing.Test()
	p2 := pairing.Default()
	one := big.NewInt(1)
	for name, f := range map[string]func(){
		"DualExp":   func() { DualExp(p1.Generator(), one, p2.Generator(), one) },
		"DualExpGT": func() { DualExpGT(p1.OneGT(), one, p2.OneGT(), one) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on mixed parameter sets", name)
				}
			}()
			f()
		}()
	}
}
