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
// Each factor runs through its base's own exponentiation comb
// (G.ExpTable). The schemes' per-attribute loops call this with a handful
// of hot bases (attribute public keys, hashed attributes, the generator)
// that their callers keep, so after the first touch every factor costs one
// limb-native comb evaluation. A base's first use costs about one plain
// exponentiation more, the price of building its comb.
func DualExp(a *pairing.G, x *big.Int, b *pairing.G, y *big.Int) *pairing.G {
	if b.Params() != a.Params() {
		panic(pairing.ErrMixedParams)
	}
	return a.ExpTable().Exp(x).Mul(b.ExpTable().Exp(y))
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
