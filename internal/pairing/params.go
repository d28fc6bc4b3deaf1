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
// A Params value has no setter: once constructed it stays read-only and
// is safe for concurrent use.
type Params struct {
	// Q is the base field prime; Q ≡ 3 (mod 4).
	Q *big.Int
	// R is the prime order of the groups G and G_T. Exponents ("Z_p" in the
	// paper) are taken modulo R.
	R *big.Int
	// H is the cofactor: Q + 1 = H·R. H ≡ 0 (mod 4).
	H *big.Int

	gen       point      // generator of G
	gtGen     fp2        // e(gen, gen), the generator of G_T
	sqrtExp   *big.Int   // (Q+1)/4, for square roots in F_Q
	millerWnd []int      // bits of R, most-significant first, for the affine reference Miller loop
	millerNAF []int8     // NAF digits of R, most-significant first, for the Montgomery Miller loop
	fpc       *fpContext // Montgomery constants for Q

	// R = 2^solA ± 2^solB ± 1, and excl is the exclusion order m (nil when
	// m = 1). inG (subgroup.go) uses all three.
	solA, solB int
	excl       *big.Int
}

var (
	// ErrInvalidParams reports parameters that fail validation.
	ErrInvalidParams = errors.New("pairing: invalid parameters")

	one = big.NewInt(1)
	two = big.NewInt(2)
)

// GenerateParams constructs fresh Type-A parameters in the shape of PBC's
// a.param: a Solinas group order R = 2^(rBits−1) + 2^b ± 1, whose NAF has at
// most three nonzero digits (so a Miller loop takes at most two addition
// steps, and the subgroup test of subgroup.go only doublings), and a base
// field prime Q = H·R − 1 of exactly qBits bits with cofactor H = 4m.
// Since H ≡ 0 (mod 4), Q ≡ 3 (mod 4) automatically, which makes −1 a
// quadratic non-residue and F_Q² = F_Q[i] a field. It tries every
// (b, sign) once, starting at a random one, and fails only when no
// Solinas prime R of rBits bits has a prime Q of qBits bits.
// qBits may not exceed the 512-bit fixed width of the Montgomery field
// arithmetic.
func GenerateParams(rBits, qBits int, rnd io.Reader) (*Params, error) {
	if rBits < 16 || qBits < rBits+8 || qBits > 64*fpMaxLimbs {
		return nil, fmt.Errorf("%w: need rBits ≥ 16 and rBits+8 ≤ qBits ≤ %d (got %d, %d)", ErrInvalidParams, 64*fpMaxLimbs, rBits, qBits)
	}
	// b runs over [1, rBits−2], so R has exactly rBits bits.
	n := 2 * (rBits - 2)
	start, err := rand.Int(rnd, big.NewInt(int64(n)))
	if err != nil {
		return nil, fmt.Errorf("generate group order: %w", err)
	}
	for i := 0; i < n; i++ {
		k := (int(start.Int64()) + i) % n
		r := new(big.Int).Lsh(one, uint(rBits-1))
		r.Add(r, new(big.Int).Lsh(one, uint(1+k/2)))
		r.Add(r, big.NewInt(int64(1-2*(k%2))))
		if !r.ProbablyPrime(32) {
			continue
		}
		q, h, err := findCofactor(r, qBits, rnd)
		if err != nil {
			return nil, err
		}
		if q == nil {
			continue
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
	return nil, fmt.Errorf("%w: no prime r = 2^%d + 2^b ± 1 with a %d-bit prime q = 4m·r − 1", ErrInvalidParams, rBits-1, qBits)
}

// findCofactor searches for H = 4m with Q = H·R − 1 prime and exactly qBits
// bits: that holds for 2^(qBits−1) < 4m·R ≤ 2^qBits, so m runs over
// [⌊2^(qBits−1)/4R⌋ + 1, ⌊2^qBits/4R⌋] from a random start, wrapping at the
// top, for at most 2^20 candidates. It skips every m that R divides, which
// newParams rejects (the subgroup test needs R ∤ H); such an m exists once
// qBits ≥ about 2·rBits + 2. It returns nil, nil when no candidate is left.
func findCofactor(r *big.Int, qBits int, rnd io.Reader) (q, h *big.Int, err error) {
	r4 := new(big.Int).Lsh(r, 2)
	lo := new(big.Int).Lsh(one, uint(qBits-1))
	lo.Quo(lo, r4).Add(lo, one)
	hi := new(big.Int).Lsh(one, uint(qBits))
	hi.Quo(hi, r4)
	span := new(big.Int).Sub(hi, lo)
	span.Add(span, one)
	if span.Sign() <= 0 {
		return nil, nil, nil
	}
	m, err := rand.Int(rnd, span)
	if err != nil {
		return nil, nil, fmt.Errorf("generate cofactor: %w", err)
	}
	m.Add(m, lo)
	tries := int64(1 << 20)
	if span.IsInt64() && span.Int64() < tries {
		tries = span.Int64()
	}
	h, q, rem := new(big.Int), new(big.Int), new(big.Int)
	for i := int64(0); i < tries; i++ {
		h.Lsh(m, 2)
		q.Mul(h, r)
		q.Sub(q, one)
		if rem.Rem(m, r).Sign() != 0 && q.ProbablyPrime(32) {
			return q, h, nil
		}
		if m.Add(m, one).Cmp(hi) > 0 {
			m.Set(lo)
		}
	}
	return nil, nil, nil
}

// newParams validates (q, r, h) and builds the derived values. The generator
// must still be installed (pickGenerator or setGenerator). q must fit the
// fpMaxLimbs-limb fixed width, so every valid Params has a Montgomery
// context. r must have the form 2^a ± 2^b ± 1 (a > b ≥ 1) and must not
// divide h, which the subgroup test (subgroup.go) relies on.
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
	case new(big.Int).Mod(h, r).Sign() == 0:
		return nil, fmt.Errorf("%w: r divides h", ErrInvalidParams)
	}
	a, b, ok := solinasForm(r)
	if !ok {
		return nil, fmt.Errorf("%w: r is not of the form 2^a ± 2^b ± 1", ErrInvalidParams)
	}
	p := &Params{
		Q:       new(big.Int).Set(q),
		R:       new(big.Int).Set(r),
		H:       new(big.Int).Set(h),
		sqrtExp: new(big.Int).Rsh(new(big.Int).Add(q, one), 2),
		solA:    a,
		solB:    b,
	}
	if m := exclusionOrder(r, h, a, b); m.Cmp(one) != 0 {
		p.excl = m
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
// curve point and clearing the cofactor, and installs it.
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
		return p.setGenerator(pt)
	}
	return fmt.Errorf("%w: could not find generator", ErrInvalidParams)
}

// setGenerator checks pt like Validate and installs it as the generator of
// G, together with e(g, g): NewParams and GenerateParams both end here, so
// every Params pairs the generator exactly once.
func (p *Params) setGenerator(pt point) error {
	if err := p.checkGenerator(pt); err != nil {
		return err
	}
	p.gen = pt
	p.gtGen = p.pair(pt, pt)
	return nil
}

// checkGenerator reports whether pt lies on the curve and has order
// exactly R.
func (p *Params) checkGenerator(pt point) error {
	if pt.inf || !p.onCurve(pt) {
		return fmt.Errorf("%w: generator not on curve", ErrInvalidParams)
	}
	if !p.inG(pt) {
		return fmt.Errorf("%w: generator order ≠ r", ErrInvalidParams)
	}
	return nil
}

// Validate checks the internal consistency of the parameters, including that
// the generator lies on the curve and has order exactly R.
func (p *Params) Validate() error {
	if _, err := newParams(p.Q, p.R, p.H); err != nil {
		return err
	}
	return p.checkGenerator(p.gen)
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
