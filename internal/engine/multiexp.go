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
// generator), so after the first touch every factor costs one limb-native
// comb evaluation. Even a cache miss costs about one plain exponentiation
// per factor, the price of building the table.
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

// DualExpGT computes t^x · u^y in the target group with two independent
// Lucas ladders, which are cheaper than one shared squaring chain of full
// F_q² multiplications because a Lucas ladder tracks only traces. It panics
// on mixed parameter sets, like DualExp.
func DualExpGT(t *pairing.GT, x *big.Int, u *pairing.GT, y *big.Int) *pairing.GT {
	if u.Params() != t.Params() {
		panic(pairing.ErrMixedParams)
	}
	return t.Exp(x).Mul(u.Exp(y))
}
