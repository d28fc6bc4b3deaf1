package pairing

import "math/big"

// The order-R subgroup test behind UnmarshalG, pickGenerator and Validate.
//
// Every valid R has the Solinas form 2^a + s₁·2^b + s₀ (a > b ≥ 1,
// s₁, s₀ ∈ {±1}), and E: y² = x³ + x is a Montgomery curve (A = 0, B = 1).
// Together they let the test run on x-coordinates alone, with doublings
// only:
//
//  1. From (X : Z) = (x : 1), doubling a times (x-only) gives x(2^b·P) on
//     the way and x(2^a·P) at the end. The point at infinity is (X : 0)
//     and stays there under doubling, so Z = 0 at the end rejects every P
//     whose order is a power of two.
//  2. Semaev's third summation polynomial for y² = x³ + x,
//
//     S3(x₁, x₂, x₃) = (x₁−x₂)²x₃² − 2(x₁+x₂)(x₁x₂+1)x₃ + (x₁x₂−1)²,
//
//     vanishes exactly when ±P₁ ± P₂ ± P₃ = O for some choice of signs
//     (IACR ePrint 2004/031). At (x(P), x(2^b·P), x(2^a·P)) that means
//     N·P = O for one of the four N = 2^a ± 2^b ± 1, and R is one of them.
//  3. E(F_q) is cyclic of order q + 1 = h·R: q ≡ 3 (mod 4) leaves (0, 0)
//     as the only point of order 2, and an odd ℓ | q + 1 cannot divide
//     q − 1, which full ℓ-torsion would need. R is prime, divides none of
//     the other three N and does not divide h, so a point that passes 1
//     and 2 with an order not dividing R has an order dividing
//     gcd(h, N) for another N, hence dividing the exclusion order
//     m = lcm of those three gcds. The test rejects m·P = O (mulScalarMont,
//     the Jacobian NAF ladder); no element of G \ {O} has m·P = O, because
//     R ∤ m.
//
// The test cannot tell E from its quadratic twist, which for this curve is
// E itself under x ↦ −x: it accepts x = −x(g) for g ∈ G. Callers must
// establish curve membership first (UnmarshalG's square root of x³ + x).
// Nor may the test be batched over a random linear combination: 8 | h, so
// a point of order 2 added to one element would cancel whenever that
// element's coefficient is even.
//
// For PBC's a.param, R = 2^159 + 2^107 + 1 and m = 51: the gcds are 1, 3
// and 17. The check costs 159 doublings of two squarings and two products
// (a Jacobian doubling costs about nine products), nine products for S3,
// and a 6-bit ladder for m.
// mulScalarAffine(pt, R).inf, behind UnmarshalGReference, is its oracle.

// solinasForm returns a and b with r = 2^a ± 2^b ± 1 and a > b ≥ 1, or
// ok = false when r has no such form.
func solinasForm(r *big.Int) (a, b int, ok bool) {
	for _, s0 := range []int64{1, -1} {
		t := new(big.Int).Sub(r, big.NewInt(s0)) // 2^a ± 2^b
		if t.Sign() <= 0 {
			continue
		}
		b := int(t.TrailingZeroBits())
		if b < 1 {
			continue
		}
		u := t.Rsh(t, uint(b)) // odd: 2^k ± 1 with a = b + k
		for _, s1 := range []int64{1, -1} {
			v := new(big.Int).Sub(u, big.NewInt(s1))
			if k := v.BitLen() - 1; k >= 1 && v.TrailingZeroBits() == uint(k) {
				return b + k, b, true
			}
		}
	}
	return 0, 0, false
}

// exclusionOrder returns m = lcm of gcd(h, N) over the sign patterns
// N = 2^a ± 2^b ± 1 other than r: the orders besides r's divisors that the
// summation-polynomial test can accept.
func exclusionOrder(r, h *big.Int, a, b int) *big.Int {
	m := big.NewInt(1)
	for _, s1 := range []int64{1, -1} {
		for _, s0 := range []int64{1, -1} {
			n := new(big.Int).Lsh(one, uint(a))
			n.Add(n, new(big.Int).Lsh(big.NewInt(s1), uint(b)))
			n.Add(n, big.NewInt(s0))
			if n.Cmp(r) == 0 {
				continue
			}
			g := new(big.Int).GCD(nil, nil, h, n)
			d := new(big.Int).GCD(nil, nil, m, g)
			m.Mul(m, g).Quo(m, d)
		}
	}
	return m
}

// xDouble doubles the x-only point (x : z) in place on y² = x³ + x:
//
//	S = (X+Z)², D = (X−Z)², X′ = 2·S·D, Z′ = (S−D)·(S+D)
//
// which is the Montgomery-curve doubling for A = 0, scaled by 2 so that no
// halving is needed. It maps (X : 0) to (X′ : 0) and (0 : Z) to (X′ : 0).
func (c *fpContext) xDouble(x, z *fpElement) {
	var s, d, t fpElement
	c.add(&s, x, z)
	c.square(&s, &s)
	c.sub(&d, x, z)
	c.square(&d, &d)
	c.mul(x, &s, &d)
	c.dbl(x, x)
	c.sub(&t, &s, &d)
	c.add(&s, &s, &d)
	c.mul(z, &t, &s)
}

// inG reports whether the curve point pt lies in G: the x-only test
// described at the top of this file. pt must be on E, not merely have an
// x-coordinate on E or its twist.
func (p *Params) inG(pt point) bool {
	if pt.inf {
		return true
	}
	c := p.fpc
	var x1, x2, z2 fpElement
	c.fromBig(&x1, pt.x)
	x3, z3 := x1, c.one
	for i := 1; i <= p.solA; i++ {
		c.xDouble(&x3, &z3)
		if i == p.solB {
			x2, z2 = x3, z3
		}
	}
	if c.isZero(&z3) {
		return false // 2^a·P = O: an order that is a power of two
	}
	// S3 with x₁ = X₁/1, x₂ = X₂/Z₂, x₃ = X₃/Z₃, times Z₂²·Z₃²:
	//	(X₁Z₂ − X₂)²·X₃² − 2(X₁Z₂ + X₂)(X₁X₂ + Z₂)·X₃Z₃ + (X₁X₂ − Z₂)²·Z₃²
	var x1z2, x1x2, u, v, w, t fpElement
	c.mul(&x1z2, &x1, &z2)
	c.mul(&x1x2, &x1, &x2)
	c.sub(&u, &x1z2, &x2)
	c.mul(&u, &u, &x3)
	c.square(&u, &u) // ((X₁Z₂ − X₂)·X₃)²
	c.add(&v, &x1z2, &x2)
	c.add(&t, &x1x2, &z2)
	c.mul(&v, &v, &t)
	c.mul(&t, &x3, &z3)
	c.mul(&v, &v, &t)
	c.dbl(&v, &v) // 2(X₁Z₂ + X₂)(X₁X₂ + Z₂)·X₃Z₃
	c.sub(&w, &x1x2, &z2)
	c.mul(&w, &w, &z3)
	c.square(&w, &w) // ((X₁X₂ − Z₂)·Z₃)²
	c.sub(&u, &u, &v)
	c.add(&u, &u, &w)
	if !c.isZero(&u) {
		return false
	}
	return p.excl == nil || !p.mulScalarMont(pt, p.excl).inf // m·P = O: an order dividing m
}
