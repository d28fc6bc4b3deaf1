package pairing

import "math/big"

// fp2m is an element a + b·i of F_q² = F_q[i]/(i²+1) with both coordinates
// held as Montgomery-form fpElements. It is the hot-path twin of the
// big.Int-backed fp2: same field, same formulas, value semantics, zero heap
// allocation. Conversion between the two representations happens only at
// the kernel boundary (fp2mFromFp2 / fp2mToFp2).
type fp2m struct {
	a, b fpElement
}

func (c *fpContext) fp2mOne() fp2m {
	return fp2m{a: c.one}
}

func (c *fpContext) fp2mIsZero(x *fp2m) bool {
	return c.isZero(&x.a) && c.isZero(&x.b)
}

func (c *fpContext) fp2mIsOne(x *fp2m) bool {
	return c.isOne(&x.a) && c.isZero(&x.b)
}

// fp2mFromFp2 converts a canonical big.Int pair into Montgomery form.
func (c *fpContext) fp2mFromFp2(z *fp2m, x fp2) {
	c.fromBig(&z.a, x.a)
	c.fromBig(&z.b, x.b)
}

// fp2mToFp2 converts back to the canonical big.Int representation.
func (c *fpContext) fp2mToFp2(x *fp2m) fp2 {
	return fp2{a: c.toBig(&x.a), b: c.toBig(&x.b)}
}

// fp2mMul sets z = x·y: (a+bi)(c+di) = (ac − bd) + (ad + bc)i. z may alias
// x or y — all products land in locals before z is written.
func (c *fpContext) fp2mMul(z, x, y *fp2m) {
	var ac, bd, ad, bc fpElement
	c.mul(&ac, &x.a, &y.a)
	c.mul(&bd, &x.b, &y.b)
	c.mul(&ad, &x.a, &y.b)
	c.mul(&bc, &x.b, &y.a)
	c.sub(&z.a, &ac, &bd)
	c.add(&z.b, &ad, &bc)
}

// fp2mSquare sets z = x²: (a+bi)² = (a+b)(a−b) + 2ab·i — two multiplications
// instead of four. z may alias x.
func (c *fpContext) fp2mSquare(z, x *fp2m) {
	var sum, diff, ab fpElement
	c.add(&sum, &x.a, &x.b)
	c.sub(&diff, &x.a, &x.b)
	c.mul(&ab, &x.a, &x.b)
	c.mul(&z.a, &sum, &diff)
	c.add(&z.b, &ab, &ab)
}

// fp2mConj sets z = a − b·i, the q-power Frobenius (q ≡ 3 mod 4). z may
// alias x.
func (c *fpContext) fp2mConj(z, x *fp2m) {
	z.a = x.a
	c.neg(&z.b, &x.b)
}

// fp2mInv sets z = x⁻¹ = conj(x)/(a²+b²), with the norm inverted in F_q.
// z may alias x.
func (c *fpContext) fp2mInv(z, x *fp2m) {
	var aa, bb, norm fpElement
	c.mul(&aa, &x.a, &x.a)
	c.mul(&bb, &x.b, &x.b)
	c.add(&norm, &aa, &bb)
	c.inv(&norm, &norm)
	var nb fpElement
	c.neg(&nb, &x.b)
	c.mul(&z.a, &x.a, &norm)
	c.mul(&z.b, &nb, &norm)
}

// fp2mExp sets z = x^k for k ≥ 0 by square-and-multiply. Used for the
// subgroup-membership exponent in UnmarshalGT, which is always positive.
// z may alias x.
func (c *fpContext) fp2mExp(z, x *fp2m, k *big.Int) {
	base := *x
	r := c.fp2mOne()
	for i := k.BitLen() - 1; i >= 0; i-- {
		c.fp2mSquare(&r, &r)
		if k.Bit(i) == 1 {
			c.fp2mMul(&r, &r, &base)
		}
	}
	*z = r
}

// fp2mExpUnitaryLucas sets z = x^k for unitary x (norm a² + b² = 1) with the
// Lucas V-ladder. Such an x satisfies x² − t·x + 1 = 0 with trace t = 2a,
// so x^k + x^(−k) = V_k(t) and Re(x^k) = V_k/2, where
//
//	V_{2m} = V_m² − 2,  V_{2m+1} = V_m·V_{m+1} − t
//
// advances the pair (V_m, V_{m+1}) with one base-field squaring and one
// multiplication per exponent bit — about half the work of generic
// square-and-multiply. The imaginary part comes back at the end from
// Im(x^k) = (t·V_k − 2V_{k+1})/(4b), a single field inversion. This is the
// compression XTR/LUC use and PBC applies to Type-A G_T exponentiation;
// every G_T element and every f^(q−1) value out of the final
// exponentiation is unitary. Negative k folds into conjugation. The result
// is bit-identical to the square-and-multiply fp2ExpUnitary on every
// unitary input; the differential tests pin this.
func (c *fpContext) fp2mExpUnitaryLucas(z, x *fp2m, k *big.Int) {
	if k.Sign() < 0 {
		var xc fp2m
		c.fp2mConj(&xc, x)
		c.fp2mExpUnitaryLucas(z, &xc, new(big.Int).Neg(k))
		return
	}
	if k.Sign() == 0 {
		*z = c.fp2mOne()
		return
	}
	if c.isZero(&x.b) {
		// Unitary with zero imaginary part means x = ±1; a^k covers both.
		c.exp(&z.a, &x.a, k)
		z.b = fpElement{}
		return
	}
	base := *x
	var t fpElement // trace t = 2a
	c.dbl(&t, &base.a)
	var two fpElement // the constant 2 in Montgomery form
	c.dbl(&two, &c.one)
	vLo := two // V_0 = 2
	vHi := t   // V_1 = t
	var tmp fpElement
	for i := k.BitLen() - 1; i >= 0; i-- {
		// Invariant entering the step: (vLo, vHi) = (V_m, V_{m+1}) for the
		// exponent prefix m; the step advances m ← 2m + bit.
		if k.Bit(i) == 1 {
			c.mul(&tmp, &vLo, &vHi)
			c.sub(&vLo, &tmp, &t)
			c.mul(&tmp, &vHi, &vHi)
			c.sub(&vHi, &tmp, &two)
		} else {
			c.mul(&tmp, &vHi, &vLo)
			c.sub(&vHi, &tmp, &t)
			c.mul(&tmp, &vLo, &vLo)
			c.sub(&vLo, &tmp, &two)
		}
	}
	// Re(x^k) = V_k/2; Im(x^k) = (t·V_k − 2·V_{k+1})/(4b).
	c.mul(&z.a, &vLo, &c.half)
	var den fpElement
	c.dbl(&den, &base.b)
	c.dbl(&den, &den)
	c.inv(&den, &den) // 4b ≠ 0 mod the prime q since b ≠ 0
	var num, hi2 fpElement
	c.mul(&num, &t, &vLo)
	c.dbl(&hi2, &vHi)
	c.sub(&num, &num, &hi2)
	c.mul(&z.b, &num, &den)
}
