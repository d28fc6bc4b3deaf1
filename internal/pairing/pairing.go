package pairing

// pair computes the reduced Tate pairing e(P, Q) = f_{r,P}(φ(Q))^((q²−1)/r)
// on raw points, returning an element of the order-R subgroup of F_q²*. It
// runs the inversion-free projective Miller loop with NAF recoding and the
// Lucas-sequence final exponentiation on fixed-width Montgomery-form field
// elements (montgomery.go): convert in, no math/big in between, convert
// out. pairReference (reference.go) is the oracle the tests pin it against.
func (p *Params) pair(P, Q point) fp2 {
	if P.inf || Q.inf {
		return fp2One()
	}
	f := p.millerMont(nil, infinity(), P, Q)
	u := p.finalExpMont(&f)
	return p.fpc.fp2mToFp2(&u)
}
