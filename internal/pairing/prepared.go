package pairing

// PreparedG caches the Miller-loop line coefficients of a fixed first
// pairing argument P, so that repeated pairings e(P, ·) skip all the curve
// arithmetic and evaluate only the cached lines — the same idea as PBC's
// pairing_pp preprocessing. Decryption pairs the same PK_UID against every
// ciphertext a user reads, and a revocation pairs the same UK1 against
// every stored ciphertext, which is exactly this access pattern; each gets
// its preparation from G.Prepared, which keeps it with the element.
//
// Each cached step holds the line's slope λ and offset c = λ·x0 − y0;
// evaluation at φ(Q) costs one multiplication and one addition per step.
// prepare walks the NAF chain of the Miller loop in Jacobian coordinates
// and recovers all the affine coefficients with a single batch inversion
// (montgomery.go).
type PreparedG struct {
	p *Params
	// msteps mirrors the Miller loop: for every iteration a tangent line,
	// followed by a chord line on nonzero NAF digits, with the coefficients
	// kept in fixed-width Montgomery form so the per-pairing walk never
	// converts or allocates. Vertical lines are left out (denominator
	// elimination).
	msteps []mLineCoeff
	// plan[i] is the number of lines consumed at loop iteration i (0, 1 or 2).
	plan []byte
	inf  bool
}

// Pair computes e(P, q) using the cached lines: PairMul with the second
// factor dropped.
func (pre *PreparedG) Pair(q *G) (*GT, error) {
	one := pre.p.OneG()
	return pre.PairMul(q, one, one)
}

// PairMul computes e(P, q)·e(a, b) in one Miller pass: every iteration
// squares one shared accumulator, multiplies in P's cached lines evaluated
// at q, then runs a's own tangent (and chord) step evaluated at b, and one
// final exponentiation reduces the product. That is sound because the
// final exponentiation is a group homomorphism. An identity in any
// argument drops that factor; with both factors dropped the result is 1.
// A nil argument is ErrBadEncoding and an element of another parameter set
// ErrMixedParams, as for Pair.
func (pre *PreparedG) PairMul(q, a, b *G) (*GT, error) {
	p := pre.p
	if q == nil || a == nil || b == nil {
		return nil, ErrBadEncoding
	}
	if q.p != p || a.p != p || b.p != p {
		return nil, ErrMixedParams
	}
	if (pre.inf || q.pt.inf) && (a.pt.inf || b.pt.inf) {
		return p.OneGT(), nil
	}
	f := p.millerMont(pre, q.pt, a.pt, b.pt)
	u := p.finalExpMont(&f)
	return &GT{p: p, v: p.fpc.fp2mToFp2(&u)}, nil
}
