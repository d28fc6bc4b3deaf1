package pairing

import (
	"fmt"
	"math/big"
)

// Encoding flags for G elements.
const (
	flagInfinity byte = 0x00
	flagEvenY    byte = 0x02
	flagOddY     byte = 0x03
)

// qByteLen returns the byte length of a base-field element.
func (p *Params) qByteLen() int {
	return (p.Q.BitLen() + 7) / 8
}

// GByteLen returns the length of a marshalled G element (compressed point:
// one flag byte plus the x-coordinate).
func (p *Params) GByteLen() int { return 1 + p.qByteLen() }

// GTByteLen returns the length of a marshalled G_T element (a full F_q²
// element, matching how PBC serializes G_T).
func (p *Params) GTByteLen() int { return 2 * p.qByteLen() }

// ScalarByteLen returns the length of a marshalled exponent (|p| in the
// paper's size tables).
func (p *Params) ScalarByteLen() int { return (p.R.BitLen() + 7) / 8 }

// Marshal encodes g in compressed form: flag ‖ x.
func (g *G) Marshal() []byte {
	out := make([]byte, g.p.GByteLen())
	if g.pt.inf {
		out[0] = flagInfinity
		return out
	}
	if g.pt.y.Bit(0) == 0 {
		out[0] = flagEvenY
	} else {
		out[0] = flagOddY
	}
	g.pt.x.FillBytes(out[1:])
	return out
}

// UnmarshalG decodes a compressed G element, verifying that the point is on
// the curve and in the order-R subgroup. The subgroup test is inG's x-only
// chain (subgroup.go); it runs after the square root of x³ + x, which is
// what rejects an x-coordinate of the quadratic twist.
func (p *Params) UnmarshalG(data []byte) (*G, error) {
	return p.unmarshalG(data, p.inG)
}

// unmarshalG is the decoder behind UnmarshalG and UnmarshalGReference:
// every check but the order test, which inSubgroup supplies.
func (p *Params) unmarshalG(data []byte, inSubgroup func(point) bool) (*G, error) {
	if len(data) != p.GByteLen() {
		return nil, fmt.Errorf("%w: G element must be %d bytes, got %d", ErrBadEncoding, p.GByteLen(), len(data))
	}
	switch data[0] {
	case flagInfinity:
		for _, b := range data[1:] {
			if b != 0 {
				return nil, fmt.Errorf("%w: nonzero x with infinity flag", ErrBadEncoding)
			}
		}
		return p.OneG(), nil
	case flagEvenY, flagOddY:
	default:
		return nil, fmt.Errorf("%w: unknown flag 0x%02x", ErrBadEncoding, data[0])
	}
	x := new(big.Int).SetBytes(data[1:])
	if x.Cmp(p.Q) >= 0 {
		return nil, fmt.Errorf("%w: x ≥ q", ErrBadEncoding)
	}
	y, ok := p.sqrt(p.rhs(x))
	if !ok {
		return nil, fmt.Errorf("%w: x not on curve", ErrBadEncoding)
	}
	if y.Bit(0) != uint(data[0]&1) {
		y.Sub(p.Q, y)
	}
	pt := point{x: x, y: y}
	if !inSubgroup(pt) {
		return nil, fmt.Errorf("%w: point not in order-r subgroup", ErrBadEncoding)
	}
	return &G{p: p, pt: pt}, nil
}

// Marshal encodes t as the concatenation of the two F_q coordinates.
func (t *GT) Marshal() []byte {
	qLen := t.p.qByteLen()
	out := make([]byte, 2*qLen)
	t.v.a.FillBytes(out[:qLen])
	t.v.b.FillBytes(out[qLen:])
	return out
}

// UnmarshalGT decodes a G_T element, verifying membership in the order-R
// subgroup of F_q²*.
func (p *Params) UnmarshalGT(data []byte) (*GT, error) {
	qLen := p.qByteLen()
	if len(data) != 2*qLen {
		return nil, fmt.Errorf("%w: GT element must be %d bytes, got %d", ErrBadEncoding, 2*qLen, len(data))
	}
	a := new(big.Int).SetBytes(data[:qLen])
	b := new(big.Int).SetBytes(data[qLen:])
	if a.Cmp(p.Q) >= 0 || b.Cmp(p.Q) >= 0 {
		return nil, fmt.Errorf("%w: coordinate ≥ q", ErrBadEncoding)
	}
	v := fp2{a: a, b: b}
	if v.isZero() {
		return nil, fmt.Errorf("%w: zero is not a group element", ErrBadEncoding)
	}
	if !p.gtSubgroupCheck(v) {
		return nil, fmt.Errorf("%w: element not in order-r subgroup", ErrBadEncoding)
	}
	return &GT{p: p, v: v}, nil
}

// gtSubgroupCheck reports v^R = 1, with the exponentiation on fixed-width
// field elements; fp2Exp is its oracle.
func (p *Params) gtSubgroupCheck(v fp2) bool {
	c := p.fpc
	var m fp2m
	c.fp2mFromFp2(&m, v)
	c.fp2mExp(&m, &m, p.R)
	return c.fp2mIsOne(&m)
}

// MarshalScalar encodes an exponent as a fixed-width big-endian integer.
func (p *Params) MarshalScalar(k *big.Int) []byte {
	out := make([]byte, p.ScalarByteLen())
	new(big.Int).Mod(k, p.R).FillBytes(out)
	return out
}

// UnmarshalScalar decodes a fixed-width exponent.
func (p *Params) UnmarshalScalar(data []byte) (*big.Int, error) {
	if len(data) != p.ScalarByteLen() {
		return nil, fmt.Errorf("%w: scalar must be %d bytes, got %d", ErrBadEncoding, p.ScalarByteLen(), len(data))
	}
	k := new(big.Int).SetBytes(data)
	if k.Cmp(p.R) >= 0 {
		return nil, fmt.Errorf("%w: scalar ≥ r", ErrBadEncoding)
	}
	return k, nil
}
