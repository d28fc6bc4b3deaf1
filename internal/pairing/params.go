package pairing

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Params holds the public parameters of a Type-A pairing group: the base
// field prime Q, the (prime) group order R, the cofactor H with Q+1 = H·R,
// and a generator of the order-R subgroup G ⊂ E(F_Q).
//
// A single Params value is safe for concurrent use once constructed.
type Params struct {
	// Q is the base field prime; Q ≡ 3 (mod 4).
	Q *big.Int
	// R is the prime order of the groups G and G_T. Exponents ("Z_p" in the
	// paper) are taken modulo R.
	R *big.Int
	// H is the cofactor: Q + 1 = H·R. H ≡ 0 (mod 4).
	H *big.Int

	gen       point      // generator of G
	sqrtExp   *big.Int   // (Q+1)/4, for square roots in F_Q
	millerWnd []int      // bits of R, most-significant first, for the affine reference Miller loop
	millerNAF []int8     // NAF digits of R, most-significant first, for the Montgomery Miller loop
	kernel    Kernel     // which pairing-kernel implementation this Params uses
	fpc       *fpContext // Montgomery constants for Q
}

var (
	// ErrInvalidParams reports parameters that fail validation.
	ErrInvalidParams = errors.New("pairing: invalid parameters")

	one  = big.NewInt(1)
	two  = big.NewInt(2)
	four = big.NewInt(4)
)

// GenerateParams constructs fresh Type-A parameters with an rBits-bit prime
// group order and a base field prime of approximately qBits bits. It searches
// for a cofactor H = 4m such that Q = H·R − 1 is prime; since H ≡ 0 (mod 4),
// Q ≡ 3 (mod 4) automatically, which makes −1 a quadratic non-residue and
// F_Q² = F_Q[i] a field. qBits may not exceed the 576-bit fixed width of the
// Montgomery field arithmetic.
func GenerateParams(rBits, qBits int, rnd io.Reader) (*Params, error) {
	if rBits < 16 || qBits < rBits+8 || qBits > 64*fpMaxLimbs {
		return nil, fmt.Errorf("%w: need rBits ≥ 16 and rBits+8 ≤ qBits ≤ %d (got %d, %d)", ErrInvalidParams, 64*fpMaxLimbs, rBits, qBits)
	}
	r, err := rand.Prime(rnd, rBits)
	if err != nil {
		return nil, fmt.Errorf("generate group order: %w", err)
	}
	return generateWithOrder(r, qBits, rnd)
}

func generateWithOrder(r *big.Int, qBits int, rnd io.Reader) (*Params, error) {
	mBits := qBits - r.BitLen() - 2 // H = 4m, so bits(H) = mBits+2
	if mBits < 4 {
		return nil, fmt.Errorf("%w: qBits too small for group order", ErrInvalidParams)
	}
	m, err := randBits(mBits, rnd)
	if err != nil {
		return nil, err
	}
	h := new(big.Int)
	q := new(big.Int)
	for i := 0; ; i++ {
		if i > 1<<20 {
			return nil, fmt.Errorf("%w: no prime found in search range", ErrInvalidParams)
		}
		h.Mul(m, four)
		q.Mul(h, r)
		q.Sub(q, one)
		if q.ProbablyPrime(32) {
			break
		}
		m.Add(m, one)
	}
	p, err := newParams(q, r, h)
	if err != nil {
		return nil, err
	}
	if err := p.pickGenerator(rnd); err != nil {
		return nil, err
	}
	return p, nil
}

// newParams validates (q, r, h) and builds the derived values. The generator
// must still be installed (pickGenerator or setGenerator). q must fit the
// fpMaxLimbs-limb fixed width, so every valid Params has a Montgomery
// context.
func newParams(q, r, h *big.Int) (*Params, error) {
	check := new(big.Int).Mul(h, r)
	check.Sub(check, one)
	switch {
	case q.BitLen() > 64*fpMaxLimbs:
		return nil, fmt.Errorf("%w: q has %d bits, more than the %d-bit field width", ErrInvalidParams, q.BitLen(), 64*fpMaxLimbs)
	case check.Cmp(q) != 0:
		return nil, fmt.Errorf("%w: q+1 ≠ h·r", ErrInvalidParams)
	case q.Bit(0) != 1 || q.Bit(1) != 1:
		return nil, fmt.Errorf("%w: q ≢ 3 (mod 4)", ErrInvalidParams)
	case !q.ProbablyPrime(32):
		return nil, fmt.Errorf("%w: q is not prime", ErrInvalidParams)
	case !r.ProbablyPrime(32):
		return nil, fmt.Errorf("%w: r is not prime", ErrInvalidParams)
	}
	p := &Params{
		Q:       new(big.Int).Set(q),
		R:       new(big.Int).Set(r),
		H:       new(big.Int).Set(h),
		sqrtExp: new(big.Int).Rsh(new(big.Int).Add(q, one), 2),
	}
	p.millerWnd = make([]int, 0, r.BitLen())
	for i := r.BitLen() - 2; i >= 0; i-- {
		p.millerWnd = append(p.millerWnd, int(r.Bit(i)))
	}
	p.millerNAF = nafDigits(r)
	p.fpc = newFpContext(p.Q)
	return p, nil
}

// pickGenerator finds a generator of the order-R subgroup by hashing to a
// curve point and clearing the cofactor.
func (p *Params) pickGenerator(rnd io.Reader) error {
	seed := make([]byte, 32)
	for attempt := 0; attempt < 256; attempt++ {
		if _, err := io.ReadFull(rnd, seed); err != nil {
			return fmt.Errorf("read generator seed: %w", err)
		}
		pt, ok := p.hashToPoint(seed)
		if !ok || pt.inf {
			continue
		}
		if !p.hasOrderDividingR(pt) {
			return fmt.Errorf("%w: generated point has wrong order", ErrInvalidParams)
		}
		p.gen = pt
		return nil
	}
	return fmt.Errorf("%w: could not find generator", ErrInvalidParams)
}

// Validate checks the internal consistency of the parameters, including that
// the generator lies on the curve and has order exactly R.
func (p *Params) Validate() error {
	if _, err := newParams(p.Q, p.R, p.H); err != nil {
		return err
	}
	if p.gen.inf || !p.onCurve(p.gen) {
		return fmt.Errorf("%w: generator not on curve", ErrInvalidParams)
	}
	if !p.hasOrderDividingR(p.gen) {
		return fmt.Errorf("%w: generator order ≠ r", ErrInvalidParams)
	}
	return nil
}

// Export returns the defining integers of the parameter set in decimal:
// q, r, h, and the generator coordinates. Together with NewParams this forms
// the serialization of a Params value.
func (p *Params) Export() (q, r, h, gx, gy string) {
	return p.Q.String(), p.R.String(), p.H.String(), p.gen.x.String(), p.gen.y.String()
}

// RandomScalar returns a uniformly random exponent in [1, R-1].
func (p *Params) RandomScalar(rnd io.Reader) (*big.Int, error) {
	for {
		k, err := rand.Int(rnd, p.R)
		if err != nil {
			return nil, fmt.Errorf("random scalar: %w", err)
		}
		if k.Sign() != 0 {
			return k, nil
		}
	}
}

func randBits(bits int, rnd io.Reader) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(rnd, buf); err != nil {
		return nil, fmt.Errorf("random bits: %w", err)
	}
	m := new(big.Int).SetBytes(buf)
	m.SetBit(m, bits-1, 1) // force the top bit so the size is exact
	return m, nil
}
