package pairing

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

// G is an element of the order-R source group G ⊂ E(F_q). The group law is
// written multiplicatively (Mul/Exp/Inv/One) to match the paper. G values
// are immutable: every operation returns a fresh element. An element builds
// its Miller-line preparation and its exponentiation comb on first use
// (Prepared, ExpTable) and keeps them for its own lifetime (precomp.go).
type G struct {
	p   *Params
	pt  point
	pre atomic.Pointer[precomp] // nil until the first Prepared or ExpTable
}

// GT is an element of the order-R target group G_T ⊂ F_q²*, also written
// multiplicatively. GT values are immutable.
type GT struct {
	p *Params
	v fp2
}

// Errors returned by element operations and deserialization.
var (
	ErrMixedParams = errors.New("pairing: elements from different parameter sets")
	ErrBadEncoding = errors.New("pairing: malformed element encoding")
)

// Generator returns the fixed generator g of G. Every call returns the same
// element, so its exponentiation comb, the one FixedBaseExp evaluates, is
// built once per Params.
func (p *Params) Generator() *G {
	return p.gen
}

// OneG returns the identity of G.
func (p *Params) OneG() *G {
	return &G{p: p, pt: infinity()}
}

// OneGT returns the identity of G_T.
func (p *Params) OneGT() *GT {
	return &GT{p: p, v: fp2One()}
}

// GTGenerator returns e(g, g), a generator of G_T. The pairing runs once,
// when the generator is installed; each call returns a fresh copy.
func (p *Params) GTGenerator() *GT {
	return &GT{p: p, v: p.gtGen.clone()}
}

// HashToG hashes arbitrary data onto G (try-and-increment + cofactor
// clearing).
func (p *Params) HashToG(data []byte) (*G, error) {
	pt, ok := p.hashToPoint(data)
	if !ok {
		return nil, fmt.Errorf("%w: hash-to-curve exhausted attempts", ErrInvalidParams)
	}
	return &G{p: p, pt: pt}, nil
}

// RandomG returns g^k for uniformly random k along with k itself.
func (p *Params) RandomG(rnd io.Reader) (*G, *big.Int, error) {
	k, err := p.RandomScalar(rnd)
	if err != nil {
		return nil, nil, err
	}
	return p.Generator().Exp(k), k, nil
}

// RandomGT returns e(g,g)^k for uniformly random k along with k itself.
func (p *Params) RandomGT(rnd io.Reader) (*GT, *big.Int, error) {
	k, err := p.RandomScalar(rnd)
	if err != nil {
		return nil, nil, err
	}
	return p.GTGenerator().Exp(k), k, nil
}

// Pair computes the symmetric pairing e(a, b).
func (p *Params) Pair(a, b *G) (*GT, error) {
	if a.p != p || b.p != p {
		return nil, ErrMixedParams
	}
	return &GT{p: p, v: p.pair(a.pt, b.pt)}, nil
}

// MustPair is Pair for elements known to share parameters; it panics on
// parameter mismatch, which indicates a programming error.
func (p *Params) MustPair(a, b *G) *GT {
	gt, err := p.Pair(a, b)
	if err != nil {
		panic(err)
	}
	return gt
}

// ---- G operations ----

// Params returns the parameter set the element belongs to.
func (g *G) Params() *Params { return g.p }

// Mul returns g·h (elliptic-curve point addition).
func (g *G) Mul(h *G) *G {
	return &G{p: g.p, pt: g.p.add(g.pt, h.pt)}
}

// Exp returns g^k (scalar multiplication). k is normalized mod R (the order
// of G) before the ladder runs, so zero, negative, and oversized scalars
// cost the same bounded double-and-add chain as their reduced residue.
func (g *G) Exp(k *big.Int) *G {
	return &G{p: g.p, pt: g.p.mulScalar(g.pt, k)}
}

// Inv returns g⁻¹ (point negation).
func (g *G) Inv() *G {
	return &G{p: g.p, pt: g.p.neg(g.pt)}
}

// Div returns g·h⁻¹.
func (g *G) Div(h *G) *G {
	return g.Mul(h.Inv())
}

// IsOne reports whether g is the group identity.
func (g *G) IsOne() bool { return g.pt.inf }

// Equal reports element equality.
func (g *G) Equal(h *G) bool {
	return g.p == h.p && g.pt.equal(h.pt)
}

// Clone returns an independent copy.
func (g *G) Clone() *G {
	return &G{p: g.p, pt: g.pt.clone()}
}

func (g *G) String() string {
	if g.pt.inf {
		return "G(∞)"
	}
	return fmt.Sprintf("G(%x…)", g.pt.x.Bytes()[:min(4, len(g.pt.x.Bytes()))])
}

// ---- GT operations ----

// Params returns the parameter set the element belongs to.
func (t *GT) Params() *Params { return t.p }

// Mul returns t·u.
func (t *GT) Mul(u *GT) *GT {
	return &GT{p: t.p, v: t.p.fp2Mul(t.v, u.v)}
}

// Exp returns t^k. k is normalized mod R — the order of G_T inside the
// unitary (norm-1) subgroup of F_q²* — before the ladder runs, so zero,
// negative, and oversized scalars cost one bounded chain. It runs the
// Lucas ladder on fixed-width field elements (fp2m.go).
func (t *GT) Exp(k *big.Int) *GT {
	kk := new(big.Int).Mod(k, t.p.R)
	c := t.p.fpc
	var x, z fp2m
	c.fp2mFromFp2(&x, t.v)
	c.fp2mExpUnitaryLucas(&z, &x, kk)
	return &GT{p: t.p, v: c.fp2mToFp2(&z)}
}

// Inv returns t⁻¹. Elements of G_T have norm 1, so inversion is conjugation.
func (t *GT) Inv() *GT {
	return &GT{p: t.p, v: t.p.fp2Conj(t.v)}
}

// Div returns t·u⁻¹.
func (t *GT) Div(u *GT) *GT {
	return t.Mul(u.Inv())
}

// IsOne reports whether t is the group identity.
func (t *GT) IsOne() bool { return t.v.isOne() }

// Equal reports element equality.
func (t *GT) Equal(u *GT) bool {
	return t.p == u.p && t.v.equal(u.v)
}

// Clone returns an independent copy.
func (t *GT) Clone() *GT {
	return &GT{p: t.p, v: t.v.clone()}
}

func (t *GT) String() string {
	return fmt.Sprintf("GT(%x…)", t.v.a.Bytes()[:min(4, len(t.v.a.Bytes()))])
}
