package engine

import (
	"math/big"

	"maacs/internal/pairing"
)

// DualExp computes a^x · b^y. Exponents are reduced mod R and may be
// negative; the result is the exact group element (canonical affine form)
// of the naive computation. It panics on mixed parameter sets, which
// indicates a programming error (matching pairing.MustPair).
//
// Each factor runs through precomputed-table exponentiation: the shared
// generator comb when the base is the group generator, and the bounded LRU
// ExpTable cache otherwise. The schemes' per-attribute loops call this with
// a handful of hot bases (attribute public keys, hashed attributes, the
// generator), so after the first touch every factor costs one table walk —
// on the Montgomery kernel a limb-native comb evaluation instead of a
// per-bit affine Mul chain that paid a field inversion per step. Even a
// cache miss costs about the same as the old shared Shamir ladder, since
// building a table is roughly one plain exponentiation.
func DualExp(a *pairing.G, x *big.Int, b *pairing.G, y *big.Int) *pairing.G {
	p := a.Params()
	if b.Params() != p {
		panic(pairing.ErrMixedParams)
	}
	return tableExp(p, a, x).Mul(tableExp(p, b, y))
}

// tableExp routes one factor to the cheapest precomputed path.
func tableExp(p *pairing.Params, g *pairing.G, k *big.Int) *pairing.G {
	if g.Equal(p.Generator()) {
		return p.FixedBaseExp(k)
	}
	return PreparedExp(g).Exp(k)
}

// DualExpGT computes t^x · u^y in the target group. On the Montgomery
// kernel two independent Lucas ladders are cheaper than a shared squaring
// chain of full F_q² multiplications — the Lucas ladder tracks only traces;
// the reference kernel keeps the Shamir chain, whose shared squarings beat
// two square-and-multiply passes.
func DualExpGT(t *pairing.GT, x *big.Int, u *pairing.GT, y *big.Int) *pairing.GT {
	p := t.Params()
	if u.Params() != p {
		panic(pairing.ErrMixedParams)
	}
	if p.Kernel() != pairing.KernelReference {
		return t.Exp(x).Mul(u.Exp(y))
	}
	xx := new(big.Int).Mod(x, p.R)
	yy := new(big.Int).Mod(y, p.R)
	tu := t.Mul(u)
	acc := p.OneGT()
	for i := maxBitLen(xx, yy) - 1; i >= 0; i-- {
		acc = acc.Mul(acc)
		switch {
		case xx.Bit(i) == 1 && yy.Bit(i) == 1:
			acc = acc.Mul(tu)
		case xx.Bit(i) == 1:
			acc = acc.Mul(t)
		case yy.Bit(i) == 1:
			acc = acc.Mul(u)
		}
	}
	return acc
}

// FixedBaseExpAll computes g^ks[i] for the group generator across the pool,
// using the precomputed generator window table.
func (p *Pool) FixedBaseExpAll(params *pairing.Params, ks []*big.Int) []*pairing.G {
	out := make([]*pairing.G, len(ks))
	_ = p.Run(len(ks), func(i int) error {
		out[i] = params.FixedBaseExp(ks[i])
		return nil
	})
	return out
}

func maxBitLen(x, y *big.Int) int {
	if x.BitLen() >= y.BitLen() {
		return x.BitLen()
	}
	return y.BitLen()
}
