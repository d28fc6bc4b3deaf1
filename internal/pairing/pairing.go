package pairing

import "math/big"

// pair computes the reduced Tate pairing e(P, Q) = f_{r,P}(φ(Q))^((q²−1)/r)
// on raw points, returning an element of the order-R subgroup of F_q²*.
// The default kernel runs the inversion-free projective Miller loop with
// NAF recoding and a Lucas-sequence final exponentiation on fixed-width
// Montgomery-form field elements (montgomery.go); KernelReference keeps the
// affine/naive chain below, which the differential tests pin the fast
// kernel against. Both chains compute the same reduced pairing: the value
// of f_{r,P}(φ(Q))^((q²−1)/r) does not depend on the addition chain,
// because chains differ only by eliminated vertical lines and F_q* scale
// factors, both killed by the q−1 factor of the final exponent.
func (p *Params) pair(P, Q point) fp2 {
	if p.kernel == KernelReference {
		return p.pairReference(P, Q)
	}
	if P.inf || Q.inf {
		return fp2One()
	}
	return p.pairMont(P, Q)
}

// pairReference is the retained affine pairing: per-step ModInverse Miller
// loop plus square-and-multiply final exponentiation.
func (p *Params) pairReference(P, Q point) fp2 {
	if P.inf || Q.inf {
		return fp2One()
	}
	return p.finalExpReference(p.miller(P, Q))
}

// millerLoop dispatches the raw Miller-loop evaluation on the selected
// kernel; PairProd uses it so multi-pairings follow the same implementation
// as Pair. The raw values of the two kernels differ by F_q* factors, which
// the final exponentiation removes.
func (p *Params) millerLoop(P, Q point) fp2 {
	if p.kernel == KernelReference {
		return p.miller(P, Q)
	}
	f := p.millerMont(P, Q)
	return p.fpc.fp2mToFp2(&f)
}

// miller runs the BKLS Miller loop in affine coordinates, evaluating the
// line functions at φ(Q) = (−x_Q, i·y_Q). Vertical lines evaluate into F_q
// and are omitted (denominator elimination): the final exponentiation
// contains the factor q−1, and any c ∈ F_q* satisfies c^(q−1) = 1.
// This is the reference implementation — each tangent/chord step pays one
// or two ModInverse calls for the affine slope.
func (p *Params) miller(P, Q point) fp2 {
	f := fp2One()
	r := P.clone()
	for _, bit := range p.millerWnd {
		f = p.fp2Square(f)
		f = p.fp2Mul(f, p.lineTangent(r, Q))
		r = p.double(r)
		if bit == 1 {
			f = p.fp2Mul(f, p.lineChord(r, P, Q))
			r = p.add(r, P)
		}
	}
	return f
}

// lineTangent evaluates the tangent line to E at R, at the distorted point
// φ(Q). If the tangent is vertical (y_R = 0) or R is infinity the line is a
// denominator-eliminated vertical: return 1.
func (p *Params) lineTangent(r, q point) fp2 {
	if r.inf || r.y.Sign() == 0 {
		return fp2One()
	}
	return p.lineEval(r, p.tangentSlope(r), q)
}

// lineChord evaluates the line through R and S at φ(Q). R+S has already been
// requested, so R ≠ ±S is the generic case; degenerate cases collapse to
// verticals and return 1.
func (p *Params) lineChord(r, s, q point) fp2 {
	switch {
	case r.inf || s.inf:
		return fp2One()
	case r.x.Cmp(s.x) == 0:
		sum := new(big.Int).Add(r.y, s.y)
		sum.Mod(sum, p.Q)
		if sum.Sign() == 0 {
			return fp2One() // vertical line through R and −R
		}
		return p.lineTangent(r, q)
	}
	num := new(big.Int).Sub(s.y, r.y)
	den := new(big.Int).Sub(s.x, r.x)
	den.Mod(den, p.Q)
	den.ModInverse(den, p.Q)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, p.Q)
	return p.lineEval(r, lambda, q)
}

// lineEval evaluates l(x, y) = y − y_R − λ(x − x_R) at φ(Q) = (−x_Q, i·y_Q):
//
//	l(φ(Q)) = (λ·(x_R + x_Q) − y_R) + y_Q·i
//
// Both coordinates of the result are F_q elements, computed with three
// multiplications-free operations plus one multiplication.
func (p *Params) lineEval(r point, lambda *big.Int, q point) fp2 {
	re := new(big.Int).Add(r.x, q.x)
	re.Mul(re, lambda)
	re.Sub(re, r.y)
	re.Mod(re, p.Q)
	return fp2{a: re, b: new(big.Int).Set(q.y)}
}

// finalExpReference raises f to (q²−1)/r = (q−1)·h, using the Frobenius
// (conjugation) for the q−1 part: f^(q−1) = f̄·f⁻¹, a unitary element, then
// a square-and-multiply unitary exponentiation by the cofactor h. It is the
// reference kernel's final exponentiation; finalExpMont is the same map on
// limbs with a Lucas ladder for the cofactor.
func (p *Params) finalExpReference(f fp2) fp2 {
	if f.isZero() {
		// Can only happen if a line passed exactly through φ(Q), i.e. Q was a
		// multiple of P in a degenerate tiny-field case. Define as 1.
		return fp2One()
	}
	u := p.fp2Mul(p.fp2Conj(f), p.fp2Inv(f))
	return p.fp2ExpUnitary(u, p.H)
}
