package pairing

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// TestSolinasFormAndExclusionOrder pins the decomposition newParams reads
// off r and the exclusion order m it derives from h, for both built-in
// parameter sets, and the recognizer on every sign pattern.
func TestSolinasFormAndExclusionOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       *Params
		a, b, m int
	}{
		// a.param: h = 2³·3·17·c, gcds 1, 3 and 17.
		{"a.param", Default(), 159, 107, 51},
		// test curve: h = 2⁴·3³·7·14557·6417263, gcds 1, 1 and 63.
		{"test", Test(), 47, 35, 63},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, ok := solinasForm(tc.p.R)
			if !ok || a != tc.a || b != tc.b || tc.p.solA != a || tc.p.solB != b {
				t.Fatalf("solinasForm(r) = %d, %d, %v (Params %d, %d), want %d, %d", a, b, ok, tc.p.solA, tc.p.solB, tc.a, tc.b)
			}
			want := big.NewInt(int64(tc.m))
			if m := exclusionOrder(tc.p.R, tc.p.H, a, b); m.Cmp(want) != 0 || tc.p.excl.Cmp(want) != 0 {
				t.Fatalf("exclusion order %v (Params %v), want %d", m, tc.p.excl, tc.m)
			}
		})
	}
	for _, a := range []int{5, 47, 159} {
		for _, b := range []int{1, 2, a - 2, a - 1} {
			for _, s1 := range []int64{1, -1} {
				for _, s0 := range []int64{1, -1} {
					r := new(big.Int).Lsh(one, uint(a))
					r.Add(r, new(big.Int).Lsh(big.NewInt(s1), uint(b)))
					r.Add(r, big.NewInt(s0))
					ga, gb, ok := solinasForm(r)
					if !ok || ga <= gb || gb < 1 {
						t.Fatalf("solinasForm(2^%d %+d·2^%d %+d) = %d, %d, %v", a, s1, b, s0, ga, gb, ok)
					}
					if !isSolinas(r, ga, gb) {
						t.Fatalf("solinasForm(%v) = 2^%d ± 2^%d ± 1, which is not r", r, ga, gb)
					}
				}
			}
		}
	}
	for _, r := range []int64{214482268068571, 43, 2, 1 << 20, (1 << 20) + (1 << 10) + (1 << 5) + 1} {
		if a, b, ok := solinasForm(big.NewInt(r)); ok {
			t.Errorf("solinasForm(%d) = %d, %d: accepted a non-Solinas number", r, a, b)
		}
	}
}

// isSolinas reports whether r is one of the four 2^a ± 2^b ± 1.
func isSolinas(r *big.Int, a, b int) bool {
	for _, s1 := range []int64{1, -1} {
		for _, s0 := range []int64{1, -1} {
			n := new(big.Int).Lsh(one, uint(a))
			n.Add(n, new(big.Int).Lsh(big.NewInt(s1), uint(b)))
			n.Add(n, big.NewInt(s0))
			if n.Cmp(r) == 0 {
				return true
			}
		}
	}
	return false
}

// TestNewParamsRejectsUnusableOrders pins the two group orders the subgroup
// test cannot serve: the test curve this package shipped before (a valid
// Type-A set whose r = 214482268068571 has no Solinas form) and a valid set
// with r | h (r = 41 = 2^5 + 2^3 + 1, h = 4·5·41, q = 33619).
func TestNewParamsRejectsUnusableOrders(t *testing.T) {
	for _, tc := range []struct {
		name, q, r, h, gx, gy, why string
	}{
		{"non-Solinas r", "55408601198092020700205721511", "214482268068571", "258336512836472",
			"50932307366807450567244062659", "23977693753224805952382436830", "r is not of the form 2^a ± 2^b ± 1"},
		{"r divides h", "33619", "41", "820", "1", "1", "r divides h"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewParams(tc.q, tc.r, tc.h, tc.gx, tc.gy)
			if !errors.Is(err, ErrInvalidParams) || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("NewParams err = %v, want ErrInvalidParams: %s", err, tc.why)
			}
		})
	}
}

// TestFindCofactorSkipsMultiplesOfR pins the cofactor search against the
// case newParams rejects, r | h. A reader of zeros starts the search at the
// bottom of its range, where for these (r, qBits) the first m with
// 4m·r − 1 prime is a multiple of r; the search must pass it by and return
// a cofactor that newParams accepts.
func TestFindCofactorSkipsMultiplesOfR(t *testing.T) {
	for _, tc := range []struct {
		r     int64
		qBits int
		first int64 // the first m of the range with 4m·r − 1 prime
	}{
		{13, 18, 2522},
		{19, 60, 7585009898729279},
	} {
		t.Run(fmt.Sprint(tc.r, "/", tc.qBits), func(t *testing.T) {
			r := big.NewInt(tc.r)
			first := new(big.Int).Mul(big.NewInt(tc.first), r)
			first.Lsh(first, 2).Sub(first, one)
			if tc.first%tc.r != 0 || !first.ProbablyPrime(32) {
				t.Fatalf("m = %d no longer exercises r | m", tc.first)
			}
			q, h, err := findCofactor(r, tc.qBits, bytes.NewReader(make([]byte, 64)))
			if err != nil || q == nil {
				t.Fatalf("findCofactor = %v, %v, %v; want a cofactor", q, h, err)
			}
			if new(big.Int).Mod(h, r).Sign() == 0 {
				t.Fatalf("findCofactor returned h = %v, a multiple of r", h)
			}
			if q.BitLen() != tc.qBits {
				t.Fatalf("q = %v has %d bits, want %d", q, q.BitLen(), tc.qBits)
			}
			if _, err := newParams(q, r, h); err != nil {
				t.Fatalf("newParams(%v, %v, %v): %v", q, r, h, err)
			}
		})
	}
}

// pointOfOrder returns a curve point of order exactly d, for d | h: a
// multiple ((q+1)/d)·P of a curve point P, checked with the affine ladder.
func pointOfOrder(t testing.TB, p *Params, d int64) point {
	t.Helper()
	n := new(big.Int).Add(p.Q, one)
	if new(big.Int).Mod(n, big.NewInt(d)).Sign() != 0 {
		t.Fatalf("%d does not divide #E", d)
	}
	n.Quo(n, big.NewInt(d))
	for i := int64(1); i < 2000; i++ {
		x := big.NewInt(i)
		y, ok := p.sqrt(p.rhs(x))
		if !ok {
			continue
		}
		if pt := p.mulScalarMont(point{x: x, y: y}, n); hasOrder(p, pt, d) {
			return pt
		}
	}
	t.Fatalf("no point of order %d over x < 2000", d)
	return point{}
}

// hasOrder reports whether pt has order exactly d: d·pt = O and
// (d/ℓ)·pt ≠ O for every prime ℓ | d.
func hasOrder(p *Params, pt point, d int64) bool {
	if !p.mulScalarAffine(pt, big.NewInt(d)).inf {
		return false
	}
	rest := d
	for l := int64(2); l <= rest; l++ {
		if rest%l != 0 {
			continue
		}
		for rest%l == 0 {
			rest /= l
		}
		if p.mulScalarAffine(pt, big.NewInt(d/l)).inf {
			return false
		}
	}
	return true
}

// subgroupCases builds the differential inputs for UnmarshalG: the identity
// encoding, random elements of G, random curve points, a point of each of
// the given small orders alone and added to an element of G, and −x(g), an
// x-coordinate the x-only test would accept on its own (the twist). want
// is the expected verdict, or 0 for "whatever the reference says".
func subgroupCases(t *testing.T, p *Params, orders []int64) []subgroupCase {
	t.Helper()
	var cases []subgroupCase
	add := func(name string, pt point, want int) {
		cases = append(cases, subgroupCase{name, (&G{p: p, pt: pt}).Marshal(), want})
	}
	add("identity", infinity(), accept)
	g := p.Generator()
	add("g", g.pt, accept)
	for i := 0; i < 4; i++ {
		gk, _, err := p.RandomG(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("g^k #%d", i), gk.pt, accept)
		add(fmt.Sprintf("−(g^k) #%d", i), p.neg(gk.pt), accept)
	}
	for i := 0; i < 4; i++ {
		seed := make([]byte, 16)
		if _, err := rand.Read(seed); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("random curve point #%d", i), randomCurvePoint(p, seed), 0)
	}
	gk, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range orders {
		tp := pointOfOrder(t, p, d)
		add(fmt.Sprintf("order %d", d), tp, reject)
		add(fmt.Sprintf("g^k + order-%d point", d), p.add(gk.pt, tp), reject)
	}
	add("nonSubgroupPoint", nonSubgroupPoint(p), reject)
	twist := (&G{p: p, pt: g.pt}).Marshal()
	new(big.Int).Sub(p.Q, g.pt.x).FillBytes(twist[1:])
	cases = append(cases, subgroupCase{"−x(g)", twist, reject})
	return cases
}

const (
	accept = 1
	reject = -1
)

type subgroupCase struct {
	name string
	enc  []byte
	want int
}

// randomCurvePoint maps seed to a point of E(F_q) without clearing the
// cofactor, so it almost surely lies outside G.
func randomCurvePoint(p *Params, seed []byte) point {
	for i := 0; ; i++ {
		x := new(big.Int).SetBytes(hashExpand(tagPoint, append(seed, byte(i)), p.qByteLen()+16))
		x.Mod(x, p.Q)
		if y, ok := p.sqrt(p.rhs(x)); ok {
			return point{x: x, y: y}
		}
	}
}

// checkDecodersAgree asserts UnmarshalG ≡ UnmarshalGReference on one input:
// the same verdict, the same error, and equal points. It returns the
// decoded element, or nil when both decoders reject the input.
func checkDecodersAgree(t *testing.T, p *Params, enc []byte) *G {
	t.Helper()
	got, gotErr := p.UnmarshalG(enc)
	ref, refErr := p.UnmarshalGReference(enc)
	switch {
	case (gotErr == nil) != (refErr == nil):
		t.Fatalf("UnmarshalG err = %v, UnmarshalGReference err = %v", gotErr, refErr)
	case gotErr != nil:
		if gotErr.Error() != refErr.Error() {
			t.Fatalf("UnmarshalG err = %v, UnmarshalGReference err = %v", gotErr, refErr)
		}
	case !got.Equal(ref):
		t.Fatalf("UnmarshalG = %v, UnmarshalGReference = %v", got, ref)
	}
	return got
}

func runSubgroupTable(t *testing.T, p *Params, orders []int64) {
	for _, tc := range subgroupCases(t, p, orders) {
		t.Run(tc.name, func(t *testing.T) {
			accepted := checkDecodersAgree(t, p, tc.enc) != nil
			if tc.want != 0 && accepted != (tc.want == accept) {
				t.Fatalf("accepted = %v, want %v", accepted, tc.want == accept)
			}
		})
	}
}

// TestUnmarshalGMatchesReferencePaperScale runs the differential at paper
// scale over every small order of a.param's h = 2³·3·17·c named by the
// soundness argument: the 2-power orders, the excluded orders 3, 17 and 51,
// and their products with each other.
func TestUnmarshalGMatchesReferencePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential skipped in -short mode")
	}
	runSubgroupTable(t, Default(), []int64{2, 4, 8, 3, 17, 6, 12, 24, 34, 51, 102, 408})
}

// TestUnmarshalGMatchesReferenceTestCurve runs the same differential on the
// test curve, h = 2⁴·3³·7·14557·6417263 with exclusion order m = 63: every
// divisor of m (the orders that pass the summation-polynomial step and only
// the m·P check rejects), the 2-power orders up to 16, an order that divides
// h but not m (27), and mixed orders.
func TestUnmarshalGMatchesReferenceTestCurve(t *testing.T) {
	runSubgroupTable(t, Test(), []int64{3, 7, 9, 21, 63, 2, 4, 8, 16, 27, 6, 14, 126, 189, 14557})
}

// TestSubgroupCheckStages pins which stage of inG rejects what on the test
// curve: each divisor of the exclusion order passes the doublings and the
// summation polynomial and falls only to the m·P check, so that check is
// load-bearing; and the x-only chain alone accepts −x(g), so the curve
// membership check in UnmarshalG must run first.
func TestSubgroupCheckStages(t *testing.T) {
	p := Test()
	noExcl := *p
	noExcl.excl = nil
	for _, d := range []int64{3, 7, 9, 21, 63} {
		tp := pointOfOrder(t, p, d)
		if !noExcl.inG(tp) {
			t.Errorf("order %d: rejected before the m·P check; the exclusion order would be vacuous", d)
		}
		if p.inG(tp) {
			t.Errorf("order %d: accepted", d)
		}
	}
	g := p.Generator()
	twist := point{x: new(big.Int).Sub(p.Q, g.pt.x), y: new(big.Int)}
	if !p.inG(twist) {
		t.Error("the x-only test rejects −x(g): the twist caveat no longer holds, update the docs")
	}
	enc := g.Marshal()
	twist.x.FillBytes(enc[1:])
	if _, err := p.UnmarshalG(enc); err == nil || !strings.Contains(err.Error(), "x not on curve") {
		t.Fatalf("UnmarshalG(−x(g)) err = %v, want the curve check to reject it", err)
	}
}
