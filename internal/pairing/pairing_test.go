package pairing

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"
)

// freshParams generates small parameters for tests that need a brand-new
// parameter set (most tests use the shared Test() parameters instead).
func freshParams(t *testing.T) *Params {
	t.Helper()
	p, err := GenerateParams(40, 80, rand.Reader)
	if err != nil {
		t.Fatalf("GenerateParams: %v", err)
	}
	return p
}

func TestGenerateParamsValid(t *testing.T) {
	p := freshParams(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// q + 1 = h·r and q ≡ 3 mod 4 are re-checked by Validate; check sizes.
	if got := p.R.BitLen(); got != 40 {
		t.Errorf("R bit length = %d, want 40", got)
	}
	if got := p.Q.BitLen(); got != 80 {
		t.Errorf("Q bit length = %d, want exactly 80", got)
	}
	// R is a Solinas prime 2^39 + 2^b ± 1: at most three nonzero NAF digits.
	if w := nafWeight(p); w > 3 {
		t.Errorf("R = %v has NAF weight %d, want ≤ 3", p.R, w)
	}
}

// TestElementStringShortCoordinates prints elements of a 24-bit-q
// parameter set, whose coordinates fit in fewer than four bytes: String
// shows all of them rather than slicing past the end.
func TestElementStringShortCoordinates(t *testing.T) {
	p, err := GenerateParams(16, 24, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Generator()
	if got, want := g.String(), fmt.Sprintf("G(%x…)", g.pt.x.Bytes()); got != want {
		t.Fatalf("G.String() = %q, want %q", got, want)
	}
	if got := p.OneG().String(); got != "G(∞)" {
		t.Fatalf("identity G.String() = %q", got)
	}
	e := p.GTGenerator()
	if got, want := e.String(), fmt.Sprintf("GT(%x…)", e.v.a.Bytes()); got != want {
		t.Fatalf("GT.String() = %q, want %q", got, want)
	}
}

func TestGeneratorOnCurveAndOrder(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	if !p.onCurve(g.pt) {
		t.Fatal("generator not on curve")
	}
	if !p.mulScalarAffine(g.pt, p.R).inf {
		t.Fatal("r·g ≠ ∞ (generator order does not divide r)")
	}
	if g.IsOne() {
		t.Fatal("generator is the identity")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	e := p.MustPair(g, g)
	if e.IsOne() {
		t.Fatal("e(g,g) = 1: pairing degenerate")
	}
	if !p.fp2Exp(e.v, p.R).isOne() {
		t.Fatal("e(g,g)^r ≠ 1: pairing value outside order-r subgroup")
	}
}

func TestPairingBilinear(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	for i := 0; i < 8; i++ {
		a, err := p.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		lhs := p.MustPair(g.Exp(a), g.Exp(b))
		ab := new(big.Int).Mul(a, b)
		rhs := p.MustPair(g, g).Exp(ab)
		if !lhs.Equal(rhs) {
			t.Fatalf("iteration %d: e(g^a, g^b) ≠ e(g,g)^(ab)", i)
		}
	}
}

func TestPairingDistributesOverMul(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	b, _ := p.RandomScalar(rand.Reader)
	c, _ := p.RandomScalar(rand.Reader)
	ga, gb, gc := g.Exp(a), g.Exp(b), g.Exp(c)
	lhs := p.MustPair(ga.Mul(gb), gc)
	rhs := p.MustPair(ga, gc).Mul(p.MustPair(gb, gc))
	if !lhs.Equal(rhs) {
		t.Fatal("e(g^a·g^b, g^c) ≠ e(g^a,g^c)·e(g^b,g^c)")
	}
}

func TestPairingSymmetric(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	b, _ := p.RandomScalar(rand.Reader)
	if !p.MustPair(g.Exp(a), g.Exp(b)).Equal(p.MustPair(g.Exp(b), g.Exp(a))) {
		t.Fatal("pairing not symmetric")
	}
}

func TestPairingIdentity(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	if !p.MustPair(p.OneG(), g).IsOne() {
		t.Fatal("e(1, g) ≠ 1")
	}
	if !p.MustPair(g, p.OneG()).IsOne() {
		t.Fatal("e(g, 1) ≠ 1")
	}
}

func TestPairInverse(t *testing.T) {
	p := freshParams(t)
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	e1 := p.MustPair(g.Exp(a).Inv(), g)
	e2 := p.MustPair(g.Exp(a), g).Inv()
	if !e1.Equal(e2) {
		t.Fatal("e(g^-a, g) ≠ e(g^a, g)^-1")
	}
}

func TestPairRejectsMixedParams(t *testing.T) {
	p1 := freshParams(t)
	p2 := freshParams(t)
	if _, err := p1.Pair(p1.Generator(), p2.Generator()); err == nil {
		t.Fatal("Pair accepted elements from different parameter sets")
	}
}

func TestHashToGInSubgroup(t *testing.T) {
	p := freshParams(t)
	for _, input := range []string{"", "a", "hello world", "AID1:doctor"} {
		h, err := p.HashToG([]byte(input))
		if err != nil {
			t.Fatalf("HashToG(%q): %v", input, err)
		}
		if !p.inG(h.pt) || !p.mulScalarAffine(h.pt, p.R).inf {
			t.Fatalf("HashToG(%q) not in order-r subgroup", input)
		}
	}
	// Determinism.
	h1, _ := p.HashToG([]byte("x"))
	h2, _ := p.HashToG([]byte("x"))
	if !h1.Equal(h2) {
		t.Fatal("HashToG not deterministic")
	}
	h3, _ := p.HashToG([]byte("y"))
	if h1.Equal(h3) {
		t.Fatal("HashToG collision on distinct inputs (overwhelmingly unlikely)")
	}
}

func TestHashToScalarRangeAndDeterminism(t *testing.T) {
	p := freshParams(t)
	seen := make(map[string]bool)
	for _, input := range []string{"", "a", "b", "doctor", "nurse"} {
		k := p.HashToScalar([]byte(input))
		if k.Sign() < 0 || k.Cmp(p.R) >= 0 {
			t.Fatalf("HashToScalar(%q) out of range", input)
		}
		seen[k.String()] = true
		if k2 := p.HashToScalar([]byte(input)); k2.Cmp(k) != 0 {
			t.Fatalf("HashToScalar(%q) not deterministic", input)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("HashToScalar collisions among 5 inputs: %d distinct", len(seen))
	}
}

func TestExportRoundTrip(t *testing.T) {
	p := freshParams(t)
	q, r, h, gx, gy := p.Export()
	p2, err := NewParams(q, r, h, gx, gy)
	if err != nil {
		t.Fatalf("NewParams round-trip: %v", err)
	}
	if !p2.inG(p2.gen) {
		t.Fatal("round-tripped generator wrong order")
	}
	if p2.Q.Cmp(p.Q) != 0 || p2.R.Cmp(p.R) != 0 || p2.H.Cmp(p.H) != 0 {
		t.Fatal("round-tripped parameters differ")
	}
}

func TestNewParamsRejectsBadInput(t *testing.T) {
	p := freshParams(t)
	q, r, h, gx, gy := p.Export()
	cases := []struct {
		name            string
		q, r, h, gx, gy string
	}{
		{"garbage", "xyz", r, h, gx, gy},
		{"wrong cofactor", q, r, "8", gx, gy},
		{"off-curve generator", q, r, h, gx, "1"},
		{"composite order", q, new(big.Int).Add(mustInt(r), big.NewInt(1)).String(), h, gx, gy},
		// A consistent 640-bit parameter set (prime q = h·r − 1 ≡ 3 mod 4,
		// generator of order r) that only the field-width limit rejects.
		{"q over 576 bits", wideQ, wideR, wideH, wideGX, wideGY},
		// The 513-bit set shipped as Default() before a.param: valid in
		// every other respect, one bit wider than the 8-limb field.
		{"q over 512 bits", retiredQ, retiredR, retiredH, retiredGX, retiredGY},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewParams(tc.q, tc.r, tc.h, tc.gx, tc.gy); !errors.Is(err, ErrInvalidParams) {
				t.Fatalf("NewParams accepted invalid input (err = %v)", err)
			}
		})
	}
	if _, err := GenerateParams(32, 640, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("GenerateParams(32, 640) err = %v, want ErrInvalidParams", err)
	}
}

const (
	wideQ  = "3539026015087673408714408673538994244719750986078153474225469100702440837920274114315782170659486633422780189994132498043038358946649281792413894602774647923559056546361893331553058913878925183"
	wideR  = "3849413213"
	wideH  = "919367659241126371827208843099846824555426335332775165549749751093411866958298954203694154218482606279447035813489971008482211220240148791844938939989721473312523943467300955500995968"
	wideGX = "3152268788813784545666365716496897422449894616169476164160448551003602580246424531969925950389109698096846813526902242432721227935611480315842523972846019946745052001610765310679791306871001621"
	wideGY = "215351224027579626807782887765674868872609429344057681840690955727179604908661189796157510657152532479640658531827718869384318608170042571838094276612392639853854848213222471293487339056033671"
)

const (
	retiredQ  = "20301860231833114598641005763142720493888738528957608109043358401580478807106066893483095486137055720228780930537780026463377271001020864698048346658282731"
	retiredR  = "1240700080266801019348078620562842876609138719753"
	retiredH  = "16363229562673509516895572929760960456108751190710230266611947953828970101189563609243593826868276519471244"
	retiredGX = "11448672117395126746089558245729596125671060559782178736541505145695671660825454556816607192145409790574106844214289948824979288474383163796540699508405928"
	retiredGY = "2202765372023036855548900473460563006470260220740215046094422696072435520469541675799754649807173412330533486582799614038913565173530256128429376083570941"
)

func mustInt(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bad int in test")
	}
	return v
}
