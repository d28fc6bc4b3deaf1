package pairing

import "math/big"

// The pairing kernel: Jacobian point formulas, the NAF Miller loop with
// fused line evaluation, batch-inverted preparation, and the Lucas final
// exponentiation, all on fixed-width fpElement arithmetic. Points and
// accumulators convert into Montgomery form once on entry and back once on
// exit; in between there is no math/big arithmetic and no heap allocation.
// Reduced pairings and scalar multiples are bit-identical to the affine
// reference functions (reference.go), which is what the differential tests
// pin.

// montAffine is an affine curve point with Montgomery-form coordinates.
// Infinity is never represented here — callers special-case it before
// converting.
type montAffine struct {
	x, y fpElement
}

// montJac is a Jacobian point (X, Y, Z) with x = X/Z², y = Y/Z³. Z = 0
// encodes infinity.
type montJac struct {
	x, y, z fpElement
}

func (c *fpContext) montJacIsInf(j *montJac) bool { return c.isZero(&j.z) }

// montFromPoint converts an affine big.Int point (not infinity).
func (c *fpContext) montFromPoint(pt point) montAffine {
	var m montAffine
	c.fromBig(&m.x, pt.x)
	c.fromBig(&m.y, pt.y)
	return m
}

// montJacToPoint normalizes a Jacobian point back to a canonical affine
// big.Int point, paying one field inversion.
func (c *fpContext) montJacToPoint(j *montJac) point {
	if c.montJacIsInf(j) {
		return infinity()
	}
	var zi, zi2, zi3, ax, ay fpElement
	c.inv(&zi, &j.z)
	c.mul(&zi2, &zi, &zi)
	c.mul(&zi3, &zi2, &zi)
	c.mul(&ax, &j.x, &zi2)
	c.mul(&ay, &j.y, &zi3)
	return point{x: c.toBig(&ax), y: c.toBig(&ay)}
}

// montJacDouble doubles j in place: the dbl-2009-alnr chain specialized to
// curve coefficient a = 1.
//
//	M = 3X² + Z⁴, S = 2((X+Y²)² − X² − Y⁴)
//	X3 = M² − 2S, Y3 = M(S − X3) − 8Y⁴, Z3 = 2YZ
func (c *fpContext) montJacDouble(j *montJac) {
	if c.montJacIsInf(j) {
		return
	}
	if c.isZero(&j.y) {
		j.z = fpElement{} // two-torsion: 2j = ∞
		return
	}
	var xx, yy, yyyy, zz, s, m, t fpElement
	c.mul(&xx, &j.x, &j.x)
	c.mul(&yy, &j.y, &j.y)
	c.mul(&yyyy, &yy, &yy)
	c.mul(&zz, &j.z, &j.z)
	c.add(&s, &j.x, &yy)
	c.mul(&s, &s, &s)
	c.sub(&s, &s, &xx)
	c.sub(&s, &s, &yyyy)
	c.dbl(&s, &s)
	c.mul(&m, &zz, &zz)
	c.add(&m, &m, &xx)
	c.dbl(&t, &xx)
	c.add(&m, &m, &t)
	// Z3 = 2YZ before Y is clobbered.
	c.mul(&t, &j.y, &j.z)
	c.dbl(&j.z, &t)
	c.mul(&j.x, &m, &m)
	c.dbl(&t, &s)
	c.sub(&j.x, &j.x, &t)
	c.sub(&t, &s, &j.x)
	c.mul(&j.y, &t, &m)
	c.dbl(&yyyy, &yyyy)
	c.dbl(&yyyy, &yyyy)
	c.dbl(&yyyy, &yyyy)
	c.sub(&j.y, &j.y, &yyyy)
}

// montJacAddAffine adds the affine point a to j in place (mixed addition):
//
//	U2 = x_a·Z², S2 = y_a·Z³, H = U2 − X, R = S2 − Y
//	X3 = R² − H³ − 2XH², Y3 = R(XH² − X3) − YH³, Z3 = ZH
func (c *fpContext) montJacAddAffine(j *montJac, a *montAffine) {
	if c.montJacIsInf(j) {
		j.x = a.x
		j.y = a.y
		j.z = c.one
		return
	}
	var zz, u2, zzz, s2, h, r fpElement
	c.mul(&zz, &j.z, &j.z)
	c.mul(&u2, &a.x, &zz)
	c.mul(&zzz, &zz, &j.z)
	c.mul(&s2, &a.y, &zzz)
	c.sub(&h, &u2, &j.x)
	c.sub(&r, &s2, &j.y)
	if c.isZero(&h) {
		if c.isZero(&r) {
			c.montJacDouble(j)
			return
		}
		j.z = fpElement{} // a = −j: vertical, sum is ∞
		return
	}
	var hh, hhh, v, t fpElement
	c.mul(&hh, &h, &h)
	c.mul(&hhh, &hh, &h)
	c.mul(&v, &j.x, &hh)
	c.mul(&j.z, &j.z, &h)
	c.mul(&j.x, &r, &r)
	c.sub(&j.x, &j.x, &hhh)
	c.dbl(&t, &v)
	c.sub(&j.x, &j.x, &t)
	c.mul(&t, &j.y, &hhh)
	c.sub(&j.y, &v, &j.x)
	c.mul(&j.y, &j.y, &r)
	c.sub(&j.y, &j.y, &t)
}

// mulScalarMont computes k·pt for k ≥ 0 with the NAF double-and-add ladder
// over Montgomery-form Jacobian points. It does not reduce k, which
// cofactor clearing (k = H > R) needs. One field inversion at the final
// normalization; the result is the same group element as mulScalarAffine
// for every k, only the addition chain differs.
func (p *Params) mulScalarMont(pt point, k *big.Int) point {
	if pt.inf || k.Sign() == 0 {
		return infinity()
	}
	c := p.fpc
	base := c.montFromPoint(pt)
	nBase := base
	c.neg(&nBase.y, &base.y)
	var acc montJac
	for _, d := range nafDigits(k) {
		c.montJacDouble(&acc)
		switch {
		case d == 1:
			c.montJacAddAffine(&acc, &base)
		case d == -1:
			c.montJacAddAffine(&acc, &nBase)
		}
	}
	return c.montJacToPoint(&acc)
}

// tangentStepMont doubles the running point in place and, for a
// non-vertical tangent, writes the tangent line at φ(Q) scaled by
// 2YZ³ ∈ F_q* into line and reports true.
//
// With R = (X, Y, Z), x_R = X/Z², y_R = Y/Z³ and λ = M/(2YZ) for
// M = 3X² + Z⁴ (curve coefficient a = 1), scaling the affine line
// λ(x_R + x_Q) − y_R + y_Q·i by 2YZ³ gives
//
//	l' = (M·(X + Z²·x_Q) − 2Y²) + 2YZ·Z²·y_Q·i
//
// in which every factor is already a doubling intermediate. The scale
// factor lies in F_q*, so the final exponentiation removes it exactly like
// an eliminated vertical line.
func (c *fpContext) tangentStepMont(r *montJac, q *montAffine, line *fp2m) bool {
	if c.montJacIsInf(r) {
		return false
	}
	if c.isZero(&r.y) {
		r.z = fpElement{} // vertical tangent at a two-torsion point: 2R = ∞
		return false
	}
	var xx, yy, yyyy, zz, s, m, z3, t fpElement
	c.mul(&xx, &r.x, &r.x)
	c.mul(&yy, &r.y, &r.y)
	c.mul(&yyyy, &yy, &yy)
	c.mul(&zz, &r.z, &r.z)
	// S = 2((X+Y²)² − X² − Y⁴)
	c.add(&s, &r.x, &yy)
	c.mul(&s, &s, &s)
	c.sub(&s, &s, &xx)
	c.sub(&s, &s, &yyyy)
	c.dbl(&s, &s)
	// M = 3X² + Z⁴
	c.mul(&m, &zz, &zz)
	c.add(&m, &m, &xx)
	c.dbl(&t, &xx)
	c.add(&m, &m, &t)
	// Z3 = 2YZ, computed before Y is clobbered.
	c.mul(&z3, &r.y, &r.z)
	c.dbl(&z3, &z3)
	// Scaled tangent line, using the pre-doubling X, Y², Z².
	var la, lb, lc fpElement
	c.mul(&la, &zz, &q.x)
	c.add(&la, &la, &r.x)
	c.mul(&la, &la, &m)
	c.dbl(&lb, &yy)
	c.sub(&line.a, &la, &lb)
	c.mul(&lc, &z3, &zz)
	c.mul(&line.b, &lc, &q.y)
	// R ← 2R: X3 = M² − 2S, Y3 = M(S − X3) − 8Y⁴, Z3 as above.
	c.mul(&r.x, &m, &m)
	c.dbl(&t, &s)
	c.sub(&r.x, &r.x, &t)
	c.sub(&t, &s, &r.x)
	c.mul(&r.y, &t, &m)
	c.dbl(&yyyy, &yyyy)
	c.dbl(&yyyy, &yyyy)
	c.dbl(&yyyy, &yyyy)
	c.sub(&r.y, &r.y, &yyyy)
	r.z = z3
	return true
}

// chordStepMont adds the affine base a (the Miller base P or −P) to the
// running point in place and, for a non-vertical chord, writes the chord
// line at φ(Q) scaled by Z3 = Z·H ∈ F_q* into line and reports true.
// Anchoring the line at the affine a avoids projecting R: with the
// mixed-addition intermediates H = x_a·Z² − X and Rc = y_a·Z³ − Y the
// affine slope is λ = Rc/Z3, and scaling λ(x_a + x_Q) − y_a + y_Q·i by Z3
// gives
//
//	l' = (Rc·(x_a + x_Q) − Z3·y_a) + Z3·y_Q·i
func (c *fpContext) chordStepMont(r *montJac, a, q *montAffine, line *fp2m) bool {
	if c.montJacIsInf(r) {
		r.x = a.x
		r.y = a.y
		r.z = c.one
		return false
	}
	var zz, u2, zzz, s2, h, rc fpElement
	c.mul(&zz, &r.z, &r.z)
	c.mul(&u2, &a.x, &zz)
	c.mul(&zzz, &zz, &r.z)
	c.mul(&s2, &a.y, &zzz)
	c.sub(&h, &u2, &r.x)
	c.sub(&rc, &s2, &r.y)
	if c.isZero(&h) {
		if c.isZero(&rc) {
			// R = a: the chord degenerates to the tangent, and the addition
			// to a doubling — same fallback as the affine lineChord.
			return c.tangentStepMont(r, q, line)
		}
		r.z = fpElement{} // R = −a: vertical chord, R + a = ∞
		return false
	}
	var hh, hhh, v, z3, t fpElement
	c.mul(&hh, &h, &h)
	c.mul(&hhh, &hh, &h)
	c.mul(&v, &r.x, &hh)
	c.mul(&z3, &r.z, &h)
	// Scaled chord line anchored at a.
	var la, lb fpElement
	c.add(&la, &a.x, &q.x)
	c.mul(&la, &la, &rc)
	c.mul(&lb, &z3, &a.y)
	c.sub(&line.a, &la, &lb)
	c.mul(&line.b, &z3, &q.y)
	// R ← R + a: X3 = Rc² − H³ − 2V, Y3 = Rc(V − X3) − Y·H³, Z3 = Z·H.
	c.mul(&r.x, &rc, &rc)
	c.sub(&r.x, &r.x, &hhh)
	c.dbl(&t, &v)
	c.sub(&r.x, &r.x, &t)
	c.mul(&t, &r.y, &hhh)
	c.sub(&r.y, &v, &r.x)
	c.mul(&r.y, &r.y, &rc)
	c.sub(&r.y, &r.y, &t)
	r.z = z3
	return true
}

// millerMont runs one NAF Miller pass for the product of two loop values,
// f_{r,P}(φ(q)) · f_{r,a}(φ(b)), entirely on fpElements, and returns the
// raw (unreduced) value in Montgomery form. P's lines come from its
// preparation pre, evaluated at q; a's lines are computed on the fly by the
// Jacobian tangent and chord steps, evaluated at b. Both factors share one
// squaring per iteration. The prepared factor is skipped when pre is nil or
// P or q is the identity, the computed one when a or b is. Compared with
// the affine reference loop it pays no inversion at all and about a third
// fewer chord steps. NAF digit −1 multiplies by the chord through R and −a
// and steps R ← R−a; the Miller correction f_{−1} = 1/v_a is a vertical
// line and vanishes under denominator elimination, so −1 costs the same as
// +1.
func (p *Params) millerMont(pre *PreparedG, q, a, b point) fp2m {
	c := p.fpc
	f := c.fp2mOne()
	prepared := pre != nil && !pre.inf && !q.inf
	millerPasses.Add(1)
	if prepared {
		preparedWalks.Add(1)
	}
	var lv fp2m // a cached line evaluated at q
	var qx fpElement
	if prepared {
		qm := c.montFromPoint(q)
		qx = qm.x
		lv.b = qm.y // the imaginary part of every cached line is y_q
	}
	computed := !a.inf && !b.inf
	var base, nBase, bm montAffine
	var r montJac
	if computed {
		base = c.montFromPoint(a)
		nBase = base
		c.neg(&nBase.y, &base.y)
		bm = c.montFromPoint(b)
		r = montJac{x: base.x, y: base.y, z: c.one}
	}
	var line fp2m
	idx := 0
	for i, d := range p.millerNAF[1:] {
		c.fp2mSquare(&f, &f)
		if prepared {
			for k := byte(0); k < pre.plan[i]; k++ {
				mc := &pre.msteps[idx]
				c.mul(&lv.a, &mc.lambda, &qx)
				c.add(&lv.a, &lv.a, &mc.c)
				c.fp2mMul(&f, &f, &lv)
				idx++
			}
		}
		if !computed {
			continue
		}
		if c.tangentStepMont(&r, &bm, &line) {
			c.fp2mMul(&f, &f, &line)
		}
		if d == 0 {
			continue
		}
		anchor := &base
		if d < 0 {
			anchor = &nBase
		}
		if c.chordStepMont(&r, anchor, &bm, &line) {
			c.fp2mMul(&f, &f, &line)
		}
	}
	return f
}

// finalExpMont raises the raw Miller value to (q²−1)/r = (q−1)·h: the q−1
// part via Frobenius (conjugate times inverse, one field inversion), then
// the Lucas ladder by the cofactor — finalExpReference with the Lucas
// ladder in place of square-and-multiply.
func (p *Params) finalExpMont(f *fp2m) fp2m {
	c := p.fpc
	finalExps.Add(1)
	if c.fp2mIsZero(f) {
		// Degenerate tiny-field case (a line passed exactly through φ(Q));
		// defined as 1, matching finalExpReference.
		return c.fp2mOne()
	}
	var fi, u fp2m
	c.fp2mInv(&fi, f)
	c.fp2mConj(&u, f)
	c.fp2mMul(&u, &u, &fi)
	var out fp2m
	c.fp2mExpUnitaryLucas(&out, &u, p.H)
	return out
}

// mLineCoeff is a line l(x,y) = y − y0 − λ(x − x0) in evaluation-ready
// form with Montgomery-form coefficients λ and c = λ·x0 − y0, so that
//
//	l(φ(Q)) = (λ·x_Q + c) + y_Q·i
//
// costs one multiplication and one addition: the cached-step format the
// prepared walk consumes. Vertical lines are not cached at all
// (denominator elimination), so every entry is a line to multiply in.
type mLineCoeff struct {
	lambda, c fpElement
}

// mPrepStep records one Miller step of the Jacobian walk with everything
// still divided by a projective denominator, deferred for batch inversion:
//
//	tangent: λ = m/den, x0 = x·z⁻², y0 = y·z⁻³   (den = 2YZ, z = Z)
//	chord:   λ = m/den, (x0, y0) = affine anchor  (den = Z·H, m = Rc)
//
// ok is false for a vertical line.
type mPrepStep struct {
	ok      bool
	tangent bool
	m       fpElement // slope numerator: M (tangent) or Rc (chord)
	x, y, z fpElement // tangent: Jacobian coordinates of the running point
	ax, ay  fpElement // chord anchor (already affine)
	den     fpElement // slope denominator, inverted in place by the batch pass
}

// Prepare precomputes the Miller-loop lines of g as a first pairing
// argument. It walks the NAF Miller chain on fpElements (zero inversions)
// and recovers all the cached affine line coefficients with one batch
// inversion over the accumulated denominators. The cached coefficients stay
// in Montgomery form so the per-pairing walk needs no conversions beyond Q.
// At paper scale a preparation caches 160 lines of 128 B (the loop's last
// chord, through P and −P, is vertical).
func (p *Params) Prepare(g *G) *PreparedG {
	if g.pt.inf {
		return &PreparedG{p: p, inf: true}
	}
	c := p.fpc
	digits := p.millerNAF[1:]
	lines := len(digits) // one tangent per iteration, one chord per nonzero digit
	for _, d := range digits {
		if d != 0 {
			lines++
		}
	}
	pre := &PreparedG{p: p, plan: make([]byte, 0, len(digits))}
	base := c.montFromPoint(g.pt)
	nBase := base
	c.neg(&nBase.y, &base.y)
	r := montJac{x: base.x, y: base.y, z: c.one}
	steps := make([]mPrepStep, 0, lines)
	for _, d := range digits {
		n := byte(0)
		if st := c.tangentStepRecordMont(&r); st.ok {
			steps = append(steps, st)
			n++
		}
		if d != 0 {
			a := &base
			if d < 0 {
				a = &nBase
			}
			if st := c.chordStepRecordMont(&r, a); st.ok {
				steps = append(steps, st)
				n++
			}
		}
		pre.plan = append(pre.plan, n)
	}
	// One inversion for the whole preparation.
	dens := make([]*fpElement, 0, 2*len(steps))
	for i := range steps {
		st := &steps[i]
		dens = append(dens, &st.den)
		if st.tangent {
			dens = append(dens, &st.z)
		}
	}
	c.batchInv(dens)
	pre.msteps = make([]mLineCoeff, len(steps))
	for i := range steps {
		st := &steps[i]
		mc := &pre.msteps[i]
		c.mul(&mc.lambda, &st.m, &st.den) // den already inverted
		x0, y0 := st.ax, st.ay
		if st.tangent {
			var zi2, zi3 fpElement
			c.mul(&zi2, &st.z, &st.z) // z holds Z⁻¹ now
			c.mul(&x0, &st.x, &zi2)
			c.mul(&zi3, &zi2, &st.z)
			c.mul(&y0, &st.y, &zi3)
		}
		c.mul(&mc.c, &mc.lambda, &x0)
		c.sub(&mc.c, &mc.c, &y0)
	}
	return pre
}

// tangentStepRecordMont is tangentStepMont without the line evaluation: it
// snapshots the tangent numerator M and the pre-doubling point, doubles R
// in place, and leaves the denominators 2YZ and Z for the batch pass.
func (c *fpContext) tangentStepRecordMont(r *montJac) mPrepStep {
	if c.montJacIsInf(r) {
		return mPrepStep{}
	}
	if c.isZero(&r.y) {
		r.z = fpElement{}
		return mPrepStep{}
	}
	st := mPrepStep{ok: true, tangent: true, x: r.x, y: r.y, z: r.z}
	// M = 3X² + Z⁴.
	var xx, zz, t fpElement
	c.mul(&xx, &r.x, &r.x)
	c.mul(&zz, &r.z, &r.z)
	c.mul(&st.m, &zz, &zz)
	c.add(&st.m, &st.m, &xx)
	c.dbl(&t, &xx)
	c.add(&st.m, &st.m, &t)
	c.montJacDouble(r)
	st.den = r.z // 2YZ of the pre-doubling point
	return st
}

// chordStepRecordMont is chordStepMont without the line evaluation: it
// snapshots the chord numerator Rc and the affine anchor, adds a to R in
// place, and leaves the denominator Z·H for the batch pass. The degenerate
// R = a case falls back to a tangent record, as the affine lineChord falls
// back to the tangent.
func (c *fpContext) chordStepRecordMont(r *montJac, a *montAffine) mPrepStep {
	if c.montJacIsInf(r) {
		r.x = a.x
		r.y = a.y
		r.z = c.one
		return mPrepStep{}
	}
	var zz, u2, zzz, s2, h, rc fpElement
	c.mul(&zz, &r.z, &r.z)
	c.mul(&u2, &a.x, &zz)
	c.mul(&zzz, &zz, &r.z)
	c.mul(&s2, &a.y, &zzz)
	c.sub(&h, &u2, &r.x)
	c.sub(&rc, &s2, &r.y)
	if c.isZero(&h) {
		if c.isZero(&rc) {
			return c.tangentStepRecordMont(r)
		}
		r.z = fpElement{}
		return mPrepStep{}
	}
	st := mPrepStep{ok: true, m: rc, ax: a.x, ay: a.y}
	var hh, hhh, v, t fpElement
	c.mul(&hh, &h, &h)
	c.mul(&hhh, &hh, &h)
	c.mul(&v, &r.x, &hh)
	c.mul(&r.z, &r.z, &h)
	c.mul(&r.x, &rc, &rc)
	c.sub(&r.x, &r.x, &hhh)
	c.dbl(&t, &v)
	c.sub(&r.x, &r.x, &t)
	c.mul(&t, &r.y, &hhh)
	c.sub(&r.y, &v, &r.x)
	c.mul(&r.y, &r.y, &rc)
	c.sub(&r.y, &r.y, &t)
	st.den = r.z // Z·H of the pre-addition point
	return st
}
