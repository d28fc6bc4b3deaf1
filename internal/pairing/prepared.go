package pairing

// PreparedG caches the Miller-loop line coefficients of a fixed first
// pairing argument P, so that repeated pairings e(P, ·) skip all the curve
// arithmetic and evaluate only the cached lines — the same idea as PBC's
// pairing_pp preprocessing. Decryption workloads pair the same C' against
// many key components, which is exactly this access pattern.
//
// Each cached step holds the line through the running point (λ, x_R, y_R);
// evaluation at φ(Q) needs one multiplication per step. Prepare walks the
// NAF chain of the Miller loop in Jacobian coordinates and recovers all the
// affine coefficients with a single batch inversion (montgomery.go).
type PreparedG struct {
	p *Params
	// msteps mirrors the Miller loop: for every iteration a tangent line,
	// followed by a chord line on nonzero NAF digits, with the coordinates
	// kept in fixed-width Montgomery form so the per-pairing walk never
	// converts or allocates. Vertical steps stay as ok = false entries
	// (denominator elimination).
	msteps []mLineCoeff
	// plan[i] is the number of lines consumed at loop iteration i (1 or 2).
	plan []byte
	inf  bool
}

// Pair computes e(P, q) using the cached lines.
func (pre *PreparedG) Pair(q *G) (*GT, error) {
	p := pre.p
	if q == nil {
		return nil, ErrBadEncoding
	}
	if q.p != p {
		return nil, ErrMixedParams
	}
	if pre.inf || q.pt.inf {
		return p.OneGT(), nil
	}
	return &GT{p: p, v: pre.pairPreparedMont(q.pt)}, nil
}
