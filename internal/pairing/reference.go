package pairing

import "math/big"

// Kernel selects which implementation of the pairing hot path a Params
// value drives. The two kernels are pinned bit-identical on every valid
// input by differential and fuzz tests; the reference stays compiled,
// testable, and benchmarkable as the oracle and the baseline the fast
// kernel is measured against (BENCH_pairing.json).
type Kernel int

const (
	// KernelMontgomery is the default: the projective (Jacobian) NAF Miller
	// loop, Lucas final exponentiation, batch-inverted Prepare, and limb
	// combs for table exponentiation, all on fixed-width fpElement
	// arithmetic in Montgomery form (CIOS multiplication, carry-chain
	// add/sub) — zero math/big on the hot path.
	KernelMontgomery Kernel = iota
	// KernelReference is the retained affine/naive implementation on
	// math/big: one ModInverse per Miller step and per point operation,
	// square-and-multiply everywhere.
	KernelReference
)

// SetKernel selects the kernel for this Params value. It mutates shared
// state, so call it only during setup, never while other goroutines use
// the parameters — benchmarks and differential tests flip it on a private
// clone (NewParams over Export), not on the shared Default()/Test() values.
func (p *Params) SetKernel(k Kernel) { p.kernel = k }

// Kernel reports the selected kernel.
func (p *Params) Kernel() Kernel { return p.kernel }

// PairReference computes e(a, b) with the retained reference kernel
// regardless of the selected one: affine Miller loop, square-and-multiply
// final exponentiation. It is the "before" timing of BENCH_pairing.json and
// the oracle the differential tests compare Pair against.
func (p *Params) PairReference(a, b *G) (*GT, error) {
	if a.p != p || b.p != p {
		return nil, ErrMixedParams
	}
	return &GT{p: p, v: p.pairReference(a.pt, b.pt)}, nil
}

// ExpReference computes g^k with the textbook affine double-and-add ladder
// (one ModInverse per point operation), regardless of the selected kernel.
// k is reduced mod R like Exp.
func (g *G) ExpReference(k *big.Int) *G {
	kk := new(big.Int).Mod(k, g.p.R)
	return &G{p: g.p, pt: g.p.mulScalarAffine(g.pt, kk)}
}

// ExpReference computes t^k with the square-and-multiply unitary ladder,
// regardless of the selected kernel. k is reduced mod R like Exp.
func (t *GT) ExpReference(k *big.Int) *GT {
	kk := new(big.Int).Mod(k, t.p.R)
	return &GT{p: t.p, v: t.p.fp2ExpUnitary(t.v, kk)}
}
