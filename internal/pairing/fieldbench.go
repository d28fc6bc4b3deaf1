package pairing

import (
	"math/big"
)

// FieldOp is one base- or extension-field primitive exposed for external
// benchmarking (internal/bench builds the field-level rows of
// BENCH_pairing.json from these). Montgomery runs the fixed-width limb
// arithmetic; BigInt runs the equivalent math/big computation the reference
// functions perform.
type FieldOp struct {
	// Name is the row label: "fp-mul", "fp-square", "fp-inv", "fp2-mul".
	Name string
	// Montgomery executes one fixed-width Montgomery operation.
	Montgomery func()
	// BigInt executes the same operation through math/big.
	BigInt func()
}

// FieldBench returns closures timing the innermost field primitives on both
// representations, over fixed pseudo-random operands derived from the
// generator so repeated calls measure identical work. The closures are not
// safe for concurrent use (they share scratch state by design, mirroring
// the single-threaded kernel comparison).
func (p *Params) FieldBench() []FieldOp {
	// Deterministic full-width operands: generator coordinates pushed through
	// a few squarings.
	xb := new(big.Int).Mod(new(big.Int).Mul(p.gen.x, p.gen.x), p.Q)
	yb := new(big.Int).Mod(new(big.Int).Mul(p.gen.y, p.gen.y), p.Q)
	zb := new(big.Int)
	x2 := fp2{a: xb, b: yb}
	y2 := fp2{a: yb, b: xb}

	c := p.fpc
	var xm, ym, zm fpElement
	c.fromBig(&xm, xb)
	c.fromBig(&ym, yb)
	var x2m, y2m, z2m fp2m
	c.fp2mFromFp2(&x2m, x2)
	c.fp2mFromFp2(&y2m, y2)
	return []FieldOp{
		{"fp-mul", func() { c.mul(&zm, &xm, &ym) }, func() { zb.Mul(xb, yb); zb.Mod(zb, p.Q) }},
		{"fp-square", func() { c.square(&zm, &xm) }, func() { zb.Mul(xb, xb); zb.Mod(zb, p.Q) }},
		{"fp-inv", func() { c.inv(&zm, &xm) }, func() { new(big.Int).ModInverse(xb, p.Q) }},
		{"fp2-mul", func() { c.fp2mMul(&z2m, &x2m, &y2m) }, func() { p.fp2Mul(x2, y2) }},
	}
}
