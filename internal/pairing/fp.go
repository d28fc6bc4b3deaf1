package pairing

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// Fixed-width Montgomery arithmetic for the base field F_q.
//
// fpElement is a little-endian array of 64-bit limbs holding a field element
// in Montgomery form: the element x is stored as x·R mod q with R = 2^(64n),
// where n = ⌈bits(q)/64⌉ is the active limb count of the parameter set. All
// hot-path operations (add, sub, CIOS multiply, exponentiation, binary-EGCD
// and batch inversion) work on fpElement values and never touch math/big;
// conversion to and from big.Int happens only at the serialization and API
// boundary.
//
// The array is sized for the shipped Type-A parameters: the default base
// field prime is PBC's 512-bit a.param q, which fills exactly eight 64-bit
// limbs. newParams rejects wider fields, so every valid Params has a
// context.
//
// Invariant: limbs at index ≥ n are always zero, so whole-array comparison
// and copying are valid. Every constructor below establishes the invariant
// and every operation preserves it.

// fpMaxLimbs is the fixed width of fpElement: 8×64 = 512 bits, sized for the
// 512-bit default prime.
const fpMaxLimbs = 8

// fpElement is a base-field element in Montgomery form, little-endian limbs.
type fpElement [fpMaxLimbs]uint64

// fpContext carries the Montgomery constants of one Params value. A context
// is immutable after construction and safe for concurrent use; all methods
// write only through their destination pointers.
type fpContext struct {
	n    int       // active limbs: ⌈bits(q)/64⌉
	mod  fpElement // q
	inv0 uint64    // −q⁻¹ mod 2⁶⁴, the CIOS folding constant
	one  fpElement // R mod q: the Montgomery form of 1
	rr   fpElement // R² mod q: fromBig multiplies by this to enter the domain
	half fpElement // Montgomery form of 2⁻¹ = (q+1)/2, for Lucas recovery
	raw1 fpElement // plain 1 (NOT Montgomery form), for the exit conversion

	qBig    *big.Int // q, for the boundary conversions
	qMinus2 *big.Int // q−2, the Fermat inversion exponent
}

// newFpContext builds the Montgomery constants for the odd prime q, or
// returns nil when q does not fit the fixed width (or is even, which cannot
// happen for valid Params but keeps the constructor total).
func newFpContext(q *big.Int) *fpContext {
	if q.Sign() <= 0 || q.Bit(0) == 0 || q.BitLen() > 64*fpMaxLimbs {
		return nil
	}
	c := &fpContext{
		n:       (q.BitLen() + 63) / 64,
		qBig:    new(big.Int).Set(q),
		qMinus2: new(big.Int).Sub(q, two),
	}
	c.setLimbs(&c.mod, q)
	// inv0 = −q⁻¹ mod 2⁶⁴ by Newton iteration: x ← x(2 − q₀x) doubles the
	// number of correct low bits each round, and x₀ = q₀ is correct mod 8.
	q0 := c.mod[0]
	inv := q0
	for i := 0; i < 5; i++ {
		inv *= 2 - q0*inv
	}
	c.inv0 = -inv
	r := new(big.Int).Lsh(one, uint(64*c.n))
	rModQ := new(big.Int).Mod(r, q)
	c.setLimbs(&c.one, rModQ)
	rr := new(big.Int).Mul(rModQ, rModQ)
	c.setLimbs(&c.rr, rr.Mod(rr, q))
	c.raw1[0] = 1
	halfBig := new(big.Int).Rsh(new(big.Int).Add(q, one), 1)
	c.fromBig(&c.half, halfBig)
	return c
}

// setLimbs fills z with the little-endian limbs of v, which must satisfy
// 0 ≤ v < 2^(64n). The value is NOT converted to Montgomery form.
func (c *fpContext) setLimbs(z *fpElement, v *big.Int) {
	var buf [fpMaxLimbs * 8]byte
	v.FillBytes(buf[:c.n*8])
	*z = fpElement{}
	for i := 0; i < c.n; i++ {
		z[i] = binary.BigEndian.Uint64(buf[(c.n-1-i)*8 : (c.n-i)*8])
	}
}

// fromBig converts v into Montgomery form. Values outside [0, q) are
// normalized (reduced mod q) first, so hostile or unreduced boundary inputs
// cannot break the representation invariant; the normalization branch is the
// only path that may allocate.
func (c *fpContext) fromBig(z *fpElement, v *big.Int) {
	if v.Sign() < 0 || v.Cmp(c.qBig) >= 0 {
		v = new(big.Int).Mod(v, c.qBig)
	}
	c.setLimbs(z, v)
	c.mul(z, z, &c.rr)
}

// toBig converts x out of Montgomery form into a fresh canonical big.Int in
// [0, q). Only used at the boundary, so the allocations are acceptable.
func (c *fpContext) toBig(x *fpElement) *big.Int {
	var raw fpElement
	c.mul(&raw, x, &c.raw1)
	var buf [fpMaxLimbs * 8]byte
	for i := 0; i < c.n; i++ {
		binary.BigEndian.PutUint64(buf[(c.n-1-i)*8:(c.n-i)*8], raw[i])
	}
	return new(big.Int).SetBytes(buf[:c.n*8])
}

func (c *fpContext) isZero(x *fpElement) bool { return *x == fpElement{} }

func (c *fpContext) isOne(x *fpElement) bool { return *x == c.one }

// add sets z = x + y mod q. z may alias x or y.
func (c *fpContext) add(z, x, y *fpElement) {
	n := c.n
	var carry uint64
	for i := 0; i < n; i++ {
		z[i], carry = bits.Add64(x[i], y[i], carry)
	}
	// Conditionally subtract q: the sum is < 2q < 2^(64n+1), so one pass.
	var t fpElement
	var borrow uint64
	for i := 0; i < n; i++ {
		t[i], borrow = bits.Sub64(z[i], c.mod[i], borrow)
	}
	if carry != 0 || borrow == 0 {
		copy(z[:n], t[:n])
	}
}

// sub sets z = x − y mod q. z may alias x or y.
func (c *fpContext) sub(z, x, y *fpElement) {
	n := c.n
	var borrow uint64
	for i := 0; i < n; i++ {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	if borrow != 0 {
		var carry uint64
		for i := 0; i < n; i++ {
			z[i], carry = bits.Add64(z[i], c.mod[i], carry)
		}
	}
}

// neg sets z = −x mod q. z may alias x.
func (c *fpContext) neg(z, x *fpElement) {
	if c.isZero(x) {
		*z = fpElement{}
		return
	}
	n := c.n
	var borrow uint64
	for i := 0; i < n; i++ {
		z[i], borrow = bits.Sub64(c.mod[i], x[i], borrow)
	}
	_ = borrow // x < q, so the subtraction cannot underflow
}

// dbl sets z = 2x mod q. z may alias x.
func (c *fpContext) dbl(z, x *fpElement) { c.add(z, x, x) }

// mul sets z = x·y·R⁻¹ mod q — CIOS (coarsely integrated operand scanning)
// Montgomery multiplication. Both inputs in Montgomery form yield a result
// in Montgomery form. z may alias x and/or y: all reads complete into the
// local accumulator before z is written. No heap allocation.
func (c *fpContext) mul(z, x, y *fpElement) {
	n := c.n
	var t [fpMaxLimbs + 2]uint64
	for i := 0; i < n; i++ {
		// t += x · y[i]
		yi := y[i]
		var carry uint64
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			hi += cc
			t[j] = lo
			carry = hi
		}
		var cc uint64
		t[n], cc = bits.Add64(t[n], carry, 0)
		t[n+1] = cc
		// Fold out the low limb: t ← (t + m·q) / 2⁶⁴ with m = t₀·inv0.
		m := t[0] * c.inv0
		hi, lo := bits.Mul64(m, c.mod[0])
		_, cc = bits.Add64(lo, t[0], 0)
		carry = hi + cc
		for j := 1; j < n; j++ {
			hi, lo = bits.Mul64(m, c.mod[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			hi += cc
			t[j-1] = lo
			carry = hi
		}
		t[n-1], cc = bits.Add64(t[n], carry, 0)
		t[n] = t[n+1] + cc
	}
	// The accumulator is < 2q; one conditional subtraction canonicalizes.
	var r fpElement
	var borrow uint64
	for i := 0; i < n; i++ {
		r[i], borrow = bits.Sub64(t[i], c.mod[i], borrow)
	}
	if t[n] != 0 || borrow == 0 {
		copy(z[:n], r[:n])
	} else {
		copy(z[:n], t[:n])
	}
}

// square sets z = x² — routed through the CIOS multiplier, which already
// interleaves the reduction with the partial products.
func (c *fpContext) square(z, x *fpElement) { c.mul(z, x, x) }

// exp sets z = x^k for k ≥ 0 by left-to-right square-and-multiply over the
// bits of k. big.Int.Bit and BitLen do not allocate, so the ladder stays
// allocation-free. z may alias x.
func (c *fpContext) exp(z, x *fpElement, k *big.Int) {
	base := *x
	r := c.one
	for i := k.BitLen() - 1; i >= 0; i-- {
		c.mul(&r, &r, &r)
		if k.Bit(i) == 1 {
			c.mul(&r, &r, &base)
		}
	}
	*z = r
}

// invFermat sets z = x^(q−2), the Fermat inverse. It costs a full-width
// exponentiation (~bits(q) squarings), so inv below uses the binary
// extended Euclidean algorithm instead; this path is kept as an
// independently-derived cross-check pinned equal by the field tests.
func (c *fpContext) invFermat(z, x *fpElement) {
	c.exp(z, x, c.qMinus2)
}

// fpInvFallbacks counts how often inv had to abandon the Lehmer path and
// recompute through invFermat. It should stay at zero — the fuzz and field
// tests assert that — and exists so a latent approximation bug would surface
// as a counter, not a wrong inverse.
var fpInvFallbacks atomic.Uint64

// invDivsteps is the number of divsteps simulated per outer round of the
// Lehmer-style inversion. The transition-matrix entries grow by at most one
// bit per step (|f₀|+|g₀| ≤ 2^i), so 62 keeps them inside int64, and the
// exact low limb of the double-limb approximation covers all 62 parity
// decisions.
const invDivsteps = 62

// inv sets z = x⁻¹ via a Lehmer-style batched binary GCD (the delayed-halving
// divstep formulation): instead of touching the full-width pair once per bit
// like the old binary EGCD, each outer round simulates invDivsteps divsteps
// on a uint128-style double-limb approximation (exact low limb for the parity
// decisions, top 64 bits at a common scale for the magnitude comparisons),
// accumulating the 2×2 transition matrix in int64s. The matrix is then
// applied once per round to the full-width Euclidean pair (exact shift by
// 2^62, conditional negation when an approximate comparison went the wrong
// way) and to the Bezout cosequences mod q (one Montgomery-style fold by
// 2^62). ~2·bits(q) divsteps retire in bits(q)/31 passes over the vectors,
// which is what closes the gap to math/big's assembly-backed ModInverse.
//
// The result is verified with one multiplication; on mismatch (which would
// indicate a bug, not bad input) the Fermat inversion recomputes it, so the
// answer is always exact. inv(0) = 0 by convention. z may alias x. No heap
// allocation on any path except the (never-taken) fallback.
func (c *fpContext) inv(z, x *fpElement) {
	if c.isZero(x) {
		*z = fpElement{}
		return
	}
	xv := *x // z may alias x, and both tails write z before their last read
	if !c.invLehmer(z, &xv) {
		fpInvFallbacks.Add(1)
		c.invFermat(z, &xv)
	}
}

// invLehmer is the body of inv; it reports false when the round cap trips or
// the verification multiply disagrees, in which case z is unspecified.
func (c *fpContext) invLehmer(z, x *fpElement) bool {
	n := c.n
	// Euclidean pair (plain multiprecision integers) and Bezout cosequences
	// (plain residues mod q), with the invariant
	//
	//	a·2^c ≡ u·x̃  and  b·2^c ≡ v·x̃  (mod q)
	//
	// where x̃ is the input read as a plain integer and c counts retired
	// divsteps. At termination a = 0 and b = gcd(x̃, q) = 1, so v ≡ x̃⁻¹·2^c;
	// the per-round 2^-62 folds cancel the 2^c as it accrues, keeping u and v
	// in [0, q) the whole time.
	a, b := *x, c.mod
	var u, v fpElement
	u[0] = 1
	// Every divstep halves a, and a·b < 2^(128n) shrinks monotonically, so
	// 128n divsteps always suffice; the cap only guards a logic bug.
	maxRounds := (128*n)/invDivsteps + 3
	for round := 0; ; round++ {
		if a == (fpElement{}) {
			break
		}
		if round >= maxRounds {
			return false
		}
		// Double-limb approximations: exact low limbs, and the top 64 bits of
		// the longer of the pair (same scale for both, so comparisons are
		// meaningful). When both fit 128 bits the approximation is exact.
		l := fpBitLen(&a, n)
		if bl := fpBitLen(&b, n); bl > l {
			l = bl
		}
		lact := (l + 63) / 64 // live limbs: a and b shrink ~62 bits a round
		alo, blo := a[0], b[0]
		var ahi, bhi uint64
		if l <= 128 {
			ahi, bhi = a[1], b[1]
		} else {
			ahi = fpBitsAt(&a, l-64)
			bhi = fpBitsAt(&b, l-64)
		}
		// invDivsteps divsteps on the approximation. Row 0 of the matrix
		// tracks a, row 1 tracks b: a' = (f0·a + g0·b)/2^62 and likewise for
		// b'. Halving a keeps row 0 fixed and doubles row 1, so both rows
		// share the 2^62 denominator at the end.
		// The factors live as uint64 two's complement (subtraction and
		// doubling agree with the signed interpretation) and are
		// reinterpreted at the end.
		// Runs of even steps retire in one shot via TrailingZeros64 — each
		// halving of a doubles matrix row 1, so a run of tz zeros is a single
		// tz-bit shift on both.
		f0, g0 := uint64(1), uint64(0)
		f1, g1 := uint64(0), uint64(1)
		for i := 0; i < invDivsteps; {
			if alo&1 != 0 {
				if ahi < bhi || (ahi == bhi && alo < blo) {
					ahi, alo, bhi, blo = bhi, blo, ahi, alo
					f0, g0, f1, g1 = f1, g1, f0, g0
				}
				var bo uint64
				alo, bo = bits.Sub64(alo, blo, 0)
				ahi, _ = bits.Sub64(ahi, bhi, bo)
				f0 -= f1
				g0 -= g1
			}
			tz := bits.TrailingZeros64(alo) // ≥ 1: odd a turned even above
			if tz > invDivsteps-i {
				tz = invDivsteps - i
			}
			alo = alo>>tz | ahi<<(64-tz)
			ahi >>= tz
			f1 <<= tz
			g1 <<= tz
			i += tz
		}
		// Apply the matrix to the full-width pair. The low 62 bits of both
		// combinations are exactly zero (parity decisions used exact low
		// limbs), so the shifts lose nothing; a comparison the truncated
		// approximation got wrong surfaces as a negative combination, fixed
		// by negating the value and its matrix row together.
		sf0, sg0 := int64(f0), int64(g0)
		sf1, sg1 := int64(f1), int64(g1)
		var na, nb fpElement
		if fpLinComb62(&na, &a, &b, sf0, sg0, lact) {
			sf0, sg0 = -sf0, -sg0
		}
		if fpLinComb62(&nb, &a, &b, sf1, sg1, lact) {
			sf1, sg1 = -sf1, -sg1
		}
		var nu, nv fpElement
		c.fpLinComb62Mod(&nu, &u, &v, sf0, sg0)
		c.fpLinComb62Mod(&nv, &u, &v, sf1, sg1)
		a, b, u, v = na, nb, nu, nv
	}
	if !fpIsRawOne(&b) {
		return false
	}
	// v is the plain inverse of the Montgomery value: v = x⁻¹R⁻¹ mod q. Two
	// Montgomery multiplications by R² rebuild the Montgomery form:
	// v·R²·R⁻¹ = x⁻¹, then x⁻¹·R²·R⁻¹ = x⁻¹·R.
	c.mul(z, &v, &c.rr)
	c.mul(z, z, &c.rr)
	var chk fpElement
	c.mul(&chk, z, x)
	return chk == c.one
}

// fpBitLen returns the bit length of x over n limbs.
func fpBitLen(x *fpElement, n int) int {
	for i := n - 1; i >= 0; i-- {
		if x[i] != 0 {
			return i*64 + bits.Len64(x[i])
		}
	}
	return 0
}

// fpBitsAt reads the 64 bits of x starting at bit offset s (little-endian).
// Bits beyond the array read as zero.
func fpBitsAt(x *fpElement, s int) uint64 {
	i, off := s/64, uint(s%64)
	v := x[i] >> off
	if off != 0 && i+1 < fpMaxLimbs {
		v |= x[i+1] << (64 - off)
	}
	return v
}

func absInt64(v int64) (uint64, bool) {
	if v < 0 {
		return uint64(-v), true
	}
	return uint64(v), false
}

// fpSignedComb sets t = |f·x + g·y| over n+1 limbs and reports whether the
// signed combination was negative. |f|+|g| ≤ 2^62 and x, y < 2^(64n), so the
// magnitude always fits n+1 limbs. Both word products run fused with the
// combination in one pass; an opposite-sign combination is computed
// speculatively as |f|·x − |g|·y and two's-complement negated if it
// underflows.
func fpSignedComb(t *[fpMaxLimbs + 1]uint64, x, y *fpElement, f, g int64, n int) bool {
	af, sf := absInt64(f)
	ag, sg := absInt64(g)
	var c1, c2 uint64
	if sf == sg {
		var carry uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(x[i], af)
			var cc uint64
			lo, cc = bits.Add64(lo, c1, 0)
			c1 = hi + cc
			hi2, lo2 := bits.Mul64(y[i], ag)
			lo2, cc = bits.Add64(lo2, c2, 0)
			c2 = hi2 + cc
			t[i], carry = bits.Add64(lo, lo2, carry)
		}
		t[n], _ = bits.Add64(c1, c2, carry) // top words are < 2^62 each: no overflow
		return sf
	}
	var borrow uint64
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(x[i], af)
		var cc uint64
		lo, cc = bits.Add64(lo, c1, 0)
		c1 = hi + cc
		hi2, lo2 := bits.Mul64(y[i], ag)
		lo2, cc = bits.Add64(lo2, c2, 0)
		c2 = hi2 + cc
		t[i], borrow = bits.Sub64(lo, lo2, borrow)
	}
	t[n], borrow = bits.Sub64(c1, c2, borrow)
	if borrow == 0 {
		return sf
	}
	var cc uint64 = 1
	for i := 0; i <= n; i++ {
		t[i], cc = bits.Add64(^t[i], 0, cc)
	}
	return sg
}

// fpLinComb62 sets dst = |f·x + g·y| / 2^62 (the low 62 bits are exactly
// zero by construction) and reports whether the combination was negative.
func fpLinComb62(dst, x, y *fpElement, f, g int64, n int) bool {
	var t [fpMaxLimbs + 1]uint64
	neg := fpSignedComb(&t, x, y, f, g, n)
	for i := 0; i < n; i++ {
		dst[i] = t[i]>>invDivsteps | t[i+1]<<(64-invDivsteps)
	}
	for i := n; i < fpMaxLimbs; i++ {
		dst[i] = 0
	}
	if neg && *dst == (fpElement{}) {
		neg = false
	}
	return neg
}

// fpLinComb62Mod sets dst = (f·u + g·v)·2^-62 mod q for plain residues
// u, v ∈ [0, q): one Montgomery-style fold by 2^62 (m = t·(−q⁻¹) mod 2^62,
// t ← (t + m·q)/2^62 < 2q), a conditional subtraction, and a negation for a
// negative combination. When q fills its top limb the folded value can
// reach 2^(64n); that bit lives in t[n] above bit 62, and the subtraction
// must fire on it too (the n-limb difference wraps to the right value).
func (c *fpContext) fpLinComb62Mod(dst, u, v *fpElement, f, g int64) {
	n := c.n
	var t [fpMaxLimbs + 1]uint64
	neg := fpSignedComb(&t, u, v, f, g, n)
	const mask62 = 1<<invDivsteps - 1
	m := (t[0] * c.inv0) & mask62
	var carry uint64
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(c.mod[i], m)
		var cc uint64
		lo, cc = bits.Add64(lo, t[i], 0)
		hi += cc
		lo, cc = bits.Add64(lo, carry, 0)
		hi += cc
		t[i] = lo
		carry = hi
	}
	t[n], _ = bits.Add64(t[n], carry, 0) // < 2^62·2q, cannot overflow n+1 limbs
	var r fpElement
	for i := 0; i < n; i++ {
		r[i] = t[i]>>invDivsteps | t[i+1]<<(64-invDivsteps)
	}
	if t[n]>>invDivsteps != 0 || fpGE(&r, &c.mod, n) {
		fpSubNoBorrow(&r, &c.mod, n)
	}
	if neg && r != (fpElement{}) {
		q := c.mod
		fpSubNoBorrow(&q, &r, n)
		r = q
	}
	*dst = r
}

// fpIsRawOne reports whether x is the plain (non-Montgomery) integer 1.
func fpIsRawOne(x *fpElement) bool { return *x == fpElement{1} }

// fpGE reports x ≥ y as n-limb unsigned integers.
func fpGE(x, y *fpElement, n int) bool {
	for i := n - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] > y[i]
		}
	}
	return true
}

// fpSubNoBorrow sets x −= y mod 2^(64n) for plain integers whose true
// difference is in [0, 2^(64n)); the final borrow is dropped.
func fpSubNoBorrow(x, y *fpElement, n int) {
	var borrow uint64
	for i := 0; i < n; i++ {
		x[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
}

// batchInv inverts every listed element in place with Montgomery's trick:
// one inversion plus 3(k−1) multiplications. Zero entries are left
// as zero (matching inv) without spoiling the other inverses.
func (c *fpContext) batchInv(xs []*fpElement) {
	if len(xs) == 0 {
		return
	}
	prods := make([]fpElement, len(xs))
	acc := c.one
	for i, x := range xs {
		prods[i] = acc
		if !c.isZero(x) {
			c.mul(&acc, &acc, x)
		}
	}
	var accInv fpElement
	c.inv(&accInv, &acc)
	for i := len(xs) - 1; i >= 0; i-- {
		x := xs[i]
		if c.isZero(x) {
			continue
		}
		var t fpElement
		c.mul(&t, &accInv, x)
		c.mul(x, &accInv, &prods[i])
		accInv = t
	}
}
