package pairing

import "math/big"

// PreparedG caches the Miller-loop line coefficients of a fixed first
// pairing argument P, so that repeated pairings e(P, ·) skip all the curve
// arithmetic and evaluate only the cached lines — the same idea as PBC's
// pairing_pp preprocessing. Decryption workloads pair the same C' against
// many key components, which is exactly this access pattern.
//
// Each cached step holds the line through the running point (λ, x_R, y_R);
// evaluation at φ(Q) needs one multiplication per step. The Montgomery
// kernel walks the NAF chain of the Miller loop in Jacobian coordinates
// and recovers all the affine coefficients with a single batch inversion
// (prepareMont); the reference kernel keeps the affine walk with one
// ModInverse per step. Either way the cached lines evaluate the same
// reduced pairing.
type PreparedG struct {
	p *Params
	// steps is the reference kernel's cache. It mirrors the Miller loop: for
	// every iteration a tangent line, optionally followed by a chord line on
	// nonzero digits. Vertical steps are omitted (denominator elimination).
	steps []lineCoeff
	// msteps is the Montgomery kernel's cache: the same lines with the
	// coordinates kept in fixed-width Montgomery form, so the per-pairing
	// walk never converts or allocates. Exactly one of steps/msteps is
	// populated, fixed by the kernel selected at Prepare time.
	msteps []mLineCoeff
	// plan[i] is the number of lines consumed at loop iteration i (1 or 2).
	plan []byte
	inf  bool
}

// lineCoeff is a line l(x,y) = y − y0 − λ(x − x0) in evaluation-ready form:
// l(φ(Q)) = (λ·(x0 + x_Q) − y0) + y_Q·i. vertical lines are skipped
// entirely, represented by ok = false.
type lineCoeff struct {
	lambda, x0, y0 *big.Int
	ok             bool
}

// Prepare precomputes the Miller-loop lines of g as a first pairing
// argument.
func (p *Params) Prepare(g *G) *PreparedG {
	if p.kernel == KernelReference {
		return p.prepareAffine(g)
	}
	return p.prepareMont(g)
}

// prepareAffine is the retained reference preparation: the binary Miller
// chain in affine coordinates, one ModInverse per tangent/chord step.
func (p *Params) prepareAffine(g *G) *PreparedG {
	if g.pt.inf {
		return &PreparedG{p: p, inf: true}
	}
	pre := &PreparedG{p: p}
	r := g.pt.clone()
	base := g.pt
	for _, bit := range p.millerWnd {
		pre.steps = append(pre.steps, p.tangentCoeff(r))
		r = p.double(r)
		n := byte(1)
		if bit == 1 {
			pre.steps = append(pre.steps, p.chordCoeff(r, base))
			r = p.add(r, base)
			n = 2
		}
		pre.plan = append(pre.plan, n)
	}
	return pre
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
	if pre.msteps != nil {
		// Prepared under the Montgomery kernel: walk the fixed-width cache.
		return &GT{p: p, v: pre.pairPreparedMont(q.pt)}, nil
	}
	f := fp2One()
	idx := 0
	for _, n := range pre.plan {
		f = p.fp2Square(f)
		for k := byte(0); k < n; k++ {
			if c := pre.steps[idx]; c.ok {
				f = p.fp2Mul(f, p.lineEval(point{x: c.x0, y: c.y0}, c.lambda, q.pt))
			}
			idx++
		}
	}
	return &GT{p: p, v: p.finalExpReference(f)}, nil
}

func (p *Params) tangentCoeff(r point) lineCoeff {
	if r.inf || r.y.Sign() == 0 {
		return lineCoeff{}
	}
	return lineCoeff{
		lambda: p.tangentSlope(r),
		x0:     new(big.Int).Set(r.x),
		y0:     new(big.Int).Set(r.y),
		ok:     true,
	}
}

func (p *Params) chordCoeff(r, s point) lineCoeff {
	switch {
	case r.inf || s.inf:
		return lineCoeff{}
	case r.x.Cmp(s.x) == 0:
		sum := new(big.Int).Add(r.y, s.y)
		sum.Mod(sum, p.Q)
		if sum.Sign() == 0 {
			return lineCoeff{} // vertical
		}
		return p.tangentCoeff(r)
	}
	num := new(big.Int).Sub(s.y, r.y)
	den := new(big.Int).Sub(s.x, r.x)
	den.Mod(den, p.Q)
	den.ModInverse(den, p.Q)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, p.Q)
	return lineCoeff{
		lambda: lambda,
		x0:     new(big.Int).Set(r.x),
		y0:     new(big.Int).Set(r.y),
		ok:     true,
	}
}
