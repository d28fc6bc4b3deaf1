package pairing

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// PBC's a.param: r = 2^159 + 2^107 + 1, whose NAF has three nonzero
	// digits, and a q of exactly 512 bits, which fills eight limbs.
	r := new(big.Int).Lsh(one, 159)
	r.Add(r, new(big.Int).Lsh(one, 107)).Add(r, one)
	if p.R.Cmp(r) != 0 {
		t.Errorf("default R = %v, want 2^159 + 2^107 + 1 (a.param)", p.R)
	}
	if w := nafWeight(p); w != 3 {
		t.Errorf("default R has NAF weight %d, want 3", w)
	}
	if got := p.Q.BitLen(); got != 512 {
		t.Errorf("default Q bit length = %d, want 512 (a.param)", got)
	}
	if p.fpc.n != 8 {
		t.Errorf("default field runs %d limbs, want 8", p.fpc.n)
	}
	if Default() != p {
		t.Error("Default() not memoized")
	}
}

// nafWeight counts the nonzero digits of p's Miller-loop NAF of R.
func nafWeight(p *Params) int {
	w := 0
	for _, d := range p.millerNAF {
		if d != 0 {
			w++
		}
	}
	return w
}

func TestTestParamsValid(t *testing.T) {
	p := Test()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := p.R.BitLen(); got != 48 {
		t.Errorf("test R bit length = %d, want 48", got)
	}
}

func TestDefaultPairingBilinear(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pairing in -short mode")
	}
	p := Default()
	g := p.Generator()
	a, err := p.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	lhs := p.MustPair(g.Exp(a), g.Exp(b))
	rhs := p.MustPair(g, g).Exp(new(big.Int).Mul(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("default params: e(g^a,g^b) ≠ e(g,g)^(ab)")
	}
	if lhs.IsOne() {
		t.Fatal("default params: degenerate pairing value")
	}
}

// TestGTGeneratorPairedOnce pins e(g, g), now paired once when the
// generator is installed: at both scales GTGenerator equals the affine
// reference pairing, costs no pairing, and hands out a fresh copy; and a
// seeded RandomGT is the reference e(g, g)^k. At paper scale its bytes are
// those of the code that paired e(g, g) on every call (seed 20).
func TestGTGeneratorPairedOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *Params
		golden string // SHA-256 of the seeded RandomGT's encoding, "" for none
	}{
		{"a.param", Default(), "46700faf2806c9f39d518c04c173e9718af8277bef7d3d18d536efbd0926d47a"},
		{"test", Test(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			g := p.Generator()
			ref, err := p.PairReference(g, g)
			if err != nil {
				t.Fatal(err)
			}
			before := SnapshotOpCounts()
			e1, e2 := p.GTGenerator(), p.GTGenerator()
			if got := SnapshotOpCounts().Delta(before); got != (OpCounts{}) {
				t.Fatalf("GTGenerator paired: %+v", got)
			}
			if !e1.Equal(ref) || !e2.Equal(ref) {
				t.Fatal("GTGenerator ≠ PairReference(g, g)")
			}
			if e1.v.a == e2.v.a || e1.v.a == p.gtGen.a {
				t.Fatal("GTGenerator shares its coordinates between calls")
			}
			v, k, err := p.RandomGT(mrand.New(mrand.NewSource(20)))
			if err != nil {
				t.Fatal(err)
			}
			if !v.Equal(ref.ExpReference(k)) {
				t.Fatal("seeded RandomGT ≠ e(g, g)^k by the reference")
			}
			if tc.golden != "" {
				sum := sha256.Sum256(v.Marshal())
				if got := hex.EncodeToString(sum[:]); got != tc.golden {
					t.Fatalf("seeded RandomGT bytes changed: SHA-256 %s, want %s", got, tc.golden)
				}
			}
		})
	}
}
