package pairing

import "math/big"

// fp2 is an element a + b·i of F_q² = F_q[i]/(i²+1). The representation is
// valid because q ≡ 3 (mod 4) makes −1 a quadratic non-residue mod q.
// All arithmetic is performed relative to a Params' base field prime.
type fp2 struct {
	a, b *big.Int
}

func fp2One() fp2 {
	return fp2{a: big.NewInt(1), b: new(big.Int)}
}

func (z fp2) clone() fp2 {
	return fp2{a: new(big.Int).Set(z.a), b: new(big.Int).Set(z.b)}
}

func (z fp2) isOne() bool {
	return z.a.Cmp(one) == 0 && z.b.Sign() == 0
}

func (z fp2) isZero() bool {
	return z.a.Sign() == 0 && z.b.Sign() == 0
}

func (z fp2) equal(w fp2) bool {
	return z.a.Cmp(w.a) == 0 && z.b.Cmp(w.b) == 0
}

// fp2Mul returns x·y mod q using the schoolbook/Karatsuba-lite formula
// (a+bi)(c+di) = (ac − bd) + (ad + bc)i.
func (p *Params) fp2Mul(x, y fp2) fp2 {
	ac := new(big.Int).Mul(x.a, y.a)
	bd := new(big.Int).Mul(x.b, y.b)
	ad := new(big.Int).Mul(x.a, y.b)
	bc := new(big.Int).Mul(x.b, y.a)
	re := ac.Sub(ac, bd)
	re.Mod(re, p.Q)
	im := ad.Add(ad, bc)
	im.Mod(im, p.Q)
	return fp2{a: re, b: im}
}

// fp2Square returns x² mod q: (a+bi)² = (a+b)(a−b) + 2ab·i.
func (p *Params) fp2Square(x fp2) fp2 {
	sum := new(big.Int).Add(x.a, x.b)
	diff := new(big.Int).Sub(x.a, x.b)
	re := sum.Mul(sum, diff)
	re.Mod(re, p.Q)
	im := new(big.Int).Mul(x.a, x.b)
	im.Lsh(im, 1)
	im.Mod(im, p.Q)
	return fp2{a: re, b: im}
}

// fp2Conj returns the complex conjugate a − b·i, which is also the q-power
// Frobenius of x (since i^q = i^(q mod 4)·… = −i for q ≡ 3 mod 4).
func (p *Params) fp2Conj(x fp2) fp2 {
	nb := new(big.Int).Neg(x.b)
	nb.Mod(nb, p.Q)
	return fp2{a: new(big.Int).Set(x.a), b: nb}
}

// fp2Inv returns x⁻¹ = conj(x)/(a²+b²).
func (p *Params) fp2Inv(x fp2) fp2 {
	norm := new(big.Int).Mul(x.a, x.a)
	bb := new(big.Int).Mul(x.b, x.b)
	norm.Add(norm, bb)
	norm.Mod(norm, p.Q)
	normInv := norm.ModInverse(norm, p.Q)
	re := new(big.Int).Mul(x.a, normInv)
	re.Mod(re, p.Q)
	im := new(big.Int).Neg(x.b)
	im.Mul(im, normInv)
	im.Mod(im, p.Q)
	return fp2{a: re, b: im}
}

// fp2Exp returns x^k by square-and-multiply. Negative exponents fold into
// the single pass by inverting the base up front — no recursion, one
// inversion, one ladder.
func (p *Params) fp2Exp(x fp2, k *big.Int) fp2 {
	if k.Sign() < 0 {
		x = p.fp2Inv(x)
		k = new(big.Int).Neg(k)
	}
	acc := fp2One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = p.fp2Square(acc)
		if k.Bit(i) == 1 {
			acc = p.fp2Mul(acc, x)
		}
	}
	return acc
}

// fp2ExpUnitary is fp2Exp specialised to norm-1 elements, where inversion is
// conjugation (folded into the same single pass as fp2Exp). This is the
// square-and-multiply reference; GT.Exp and the final exponentiation use
// the Lucas ladder fp2mExpUnitaryLucas instead.
func (p *Params) fp2ExpUnitary(x fp2, k *big.Int) fp2 {
	if k.Sign() < 0 {
		x = p.fp2Conj(x)
		k = new(big.Int).Neg(k)
	}
	acc := fp2One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = p.fp2Square(acc)
		if k.Bit(i) == 1 {
			acc = p.fp2Mul(acc, x)
		}
	}
	return acc
}
