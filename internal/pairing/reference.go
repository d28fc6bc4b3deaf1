package pairing

import "math/big"

// The affine math/big reference. No fast operation calls it: it is the
// oracle the tests pin every fast operation against, byte for byte, at test
// and paper scale.
//
//   - PairReference (affine binary Miller loop, square-and-multiply final
//     exponentiation) pins Pair, PreparedG.Pair and PreparedG.PairMul.
//   - G.ExpReference (mulScalarAffine, curve.go) pins G.Exp, MultiExp,
//     FixedBaseExp and ExpTable.Exp.
//   - UnmarshalGReference (the math/big square root sqrtReference, and
//     mulScalarAffine(pt, R).inf as the order test) pins UnmarshalG and with
//     it sqrt and the x-only subgroup test inG.
//   - GT.ExpReference (fp2ExpUnitary, fp2.go) pins GT.Exp and the Lucas
//     ladder of the final exponentiation.
//   - fp2Exp (fp2.go) pins fp2mExp and with it UnmarshalGT's v^r check.
//
// The fast Miller loop and the affine one compute the same reduced pairing:
// the value of f_{r,P}(φ(Q))^((q²−1)/r) does not depend on the addition
// chain, because chains differ only by eliminated vertical lines and F_q*
// scale factors, both killed by the q−1 factor of the final exponent.

// PairReference computes e(a, b) with the affine reference: affine Miller
// loop, square-and-multiply final exponentiation. It is the oracle the
// differential tests compare Pair against and the baseline of the "pair"
// row of BENCH_pairing.json.
func (p *Params) PairReference(a, b *G) (*GT, error) {
	if a.p != p || b.p != p {
		return nil, ErrMixedParams
	}
	return &GT{p: p, v: p.pairReference(a.pt, b.pt)}, nil
}

// UnmarshalGReference is UnmarshalG with the square root in math/big and the
// textbook order test: the same decode, then r·P = O by the affine ladder
// over the unreduced R. It is the oracle the tests and FuzzUnmarshalG
// compare UnmarshalG against and the baseline of the "g-decode" row of
// BENCH_pairing.json.
func (p *Params) UnmarshalGReference(data []byte) (*G, error) {
	return p.unmarshalG(data, p.sqrtReference, func(pt point) bool { return p.mulScalarAffine(pt, p.R).inf })
}

// ExpReference computes g^k with the textbook affine double-and-add ladder
// (one ModInverse per point operation). k is reduced mod R like Exp.
func (g *G) ExpReference(k *big.Int) *G {
	kk := new(big.Int).Mod(k, g.p.R)
	return &G{p: g.p, pt: g.p.mulScalarAffine(g.pt, kk)}
}

// ExpReference computes t^k with the square-and-multiply unitary ladder.
// k is reduced mod R like Exp.
func (t *GT) ExpReference(k *big.Int) *GT {
	kk := new(big.Int).Mod(k, t.p.R)
	return &GT{p: t.p, v: t.p.fp2ExpUnitary(t.v, kk)}
}

// pairReference is the affine pairing: per-step ModInverse Miller loop
// plus square-and-multiply final exponentiation.
func (p *Params) pairReference(P, Q point) fp2 {
	if P.inf || Q.inf {
		return fp2One()
	}
	return p.finalExpReference(p.miller(P, Q))
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
// a square-and-multiply unitary exponentiation by the cofactor h.
// finalExpMont is the same map on limbs with a Lucas ladder for the
// cofactor.
func (p *Params) finalExpReference(f fp2) fp2 {
	if f.isZero() {
		// Can only happen if a line passed exactly through φ(Q), i.e. Q was a
		// multiple of P in a degenerate tiny-field case. Define as 1.
		return fp2One()
	}
	u := p.fp2Mul(p.fp2Conj(f), p.fp2Inv(f))
	return p.fp2ExpUnitary(u, p.H)
}
