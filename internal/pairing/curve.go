package pairing

import "math/big"

// point is an affine point on E: y² = x³ + x over F_q, or the point at
// infinity when inf is true.
type point struct {
	x, y *big.Int
	inf  bool
}

func infinity() point {
	return point{inf: true}
}

func (pt point) clone() point {
	if pt.inf {
		return infinity()
	}
	return point{x: new(big.Int).Set(pt.x), y: new(big.Int).Set(pt.y)}
}

func (pt point) equal(q point) bool {
	if pt.inf || q.inf {
		return pt.inf == q.inf
	}
	return pt.x.Cmp(q.x) == 0 && pt.y.Cmp(q.y) == 0
}

// onCurve reports whether pt satisfies y² = x³ + x (mod q).
func (p *Params) onCurve(pt point) bool {
	if pt.inf {
		return true
	}
	lhs := new(big.Int).Mul(pt.y, pt.y)
	lhs.Mod(lhs, p.Q)
	rhs := p.rhs(pt.x)
	return lhs.Cmp(rhs) == 0
}

// rhs returns x³ + x mod q.
func (p *Params) rhs(x *big.Int) *big.Int {
	r := new(big.Int).Mul(x, x)
	r.Mod(r, p.Q)
	r.Mul(r, x)
	r.Add(r, x)
	r.Mod(r, p.Q)
	return r
}

func (p *Params) neg(pt point) point {
	if pt.inf {
		return pt
	}
	ny := new(big.Int).Neg(pt.y)
	ny.Mod(ny, p.Q)
	return point{x: new(big.Int).Set(pt.x), y: ny}
}

// add computes a + b with the affine chord-and-tangent formulas.
func (p *Params) add(a, b point) point {
	switch {
	case a.inf:
		return b.clone()
	case b.inf:
		return a.clone()
	}
	if a.x.Cmp(b.x) == 0 {
		sum := new(big.Int).Add(a.y, b.y)
		sum.Mod(sum, p.Q)
		if sum.Sign() == 0 {
			return infinity() // b = −a (covers y = 0 doubling)
		}
		return p.double(a)
	}
	// λ = (y₂ − y₁)/(x₂ − x₁)
	num := new(big.Int).Sub(b.y, a.y)
	den := new(big.Int).Sub(b.x, a.x)
	den.Mod(den, p.Q)
	den.ModInverse(den, p.Q)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, p.Q)
	return p.chord(a, b, lambda)
}

// double computes 2a; a must not be infinity and must have y ≠ 0.
func (p *Params) double(a point) point {
	if a.inf {
		return a
	}
	if a.y.Sign() == 0 {
		return infinity()
	}
	lambda := p.tangentSlope(a)
	return p.chord(a, a, lambda)
}

// tangentSlope returns λ = (3x² + 1)/(2y) for the curve y² = x³ + x.
func (p *Params) tangentSlope(a point) *big.Int {
	num := new(big.Int).Mul(a.x, a.x)
	num.Mul(num, big.NewInt(3))
	num.Add(num, one)
	den := new(big.Int).Lsh(a.y, 1)
	den.Mod(den, p.Q)
	den.ModInverse(den, p.Q)
	num.Mul(num, den)
	num.Mod(num, p.Q)
	return num
}

// chord completes an addition given the slope λ of the line through a and b:
// x₃ = λ² − x₁ − x₂, y₃ = λ(x₁ − x₃) − y₁.
func (p *Params) chord(a, b point, lambda *big.Int) point {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, a.x)
	x3.Sub(x3, b.x)
	x3.Mod(x3, p.Q)
	y3 := new(big.Int).Sub(a.x, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, a.y)
	y3.Mod(y3, p.Q)
	return point{x: x3, y: y3}
}

// mulScalar computes k·pt by double-and-add. k may be any integer; it is
// reduced mod R first (the group G has order R).
func (p *Params) mulScalar(pt point, k *big.Int) point {
	kk := new(big.Int).Mod(k, p.R)
	return p.mulScalarMont(pt, kk)
}

// mulScalarAffine is the textbook affine double-and-add: the oracle for
// mulScalarMont and G.ExpReference's ladder, and, with the unreduced k = R,
// for the subgroup test inG (UnmarshalGReference).
func (p *Params) mulScalarAffine(pt point, k *big.Int) point {
	acc := infinity()
	if pt.inf || k.Sign() == 0 {
		return acc
	}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = p.double(acc)
		if k.Bit(i) == 1 {
			acc = p.add(acc, pt)
		}
	}
	return acc
}
