package pairing

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// hashExpand derives at least n bytes from data using SHA-256 in counter
// mode: SHA256(tag ‖ ctr ‖ data) ‖ SHA256(tag ‖ ctr+1 ‖ data) ‖ …
func hashExpand(tag byte, data []byte, n int) []byte {
	out := make([]byte, 0, ((n+31)/32)*32)
	var ctr [5]byte
	ctr[0] = tag
	for i := 0; len(out) < n; i++ {
		binary.BigEndian.PutUint32(ctr[1:], uint32(i))
		h := sha256.New()
		h.Write(ctr[:])
		h.Write(data)
		out = h.Sum(out)
	}
	return out[:n]
}

const (
	tagScalar  = 0x01
	tagPoint   = 0x02
	tagKDF     = 0x03
	rejections = 512
)

// HashToScalar implements the paper's H : {0,1}* → Z_p (our Z_R): expand to
// 64 bytes and reduce mod R. The 512-bit expansion makes the mod-R bias
// negligible for any practical R.
func (p *Params) HashToScalar(data []byte) *big.Int {
	buf := hashExpand(tagScalar, data, 64)
	k := new(big.Int).SetBytes(buf)
	return k.Mod(k, p.R)
}

// hashToPoint maps data to a point of order dividing R via try-and-increment
// plus cofactor clearing. ok is false only if every attempt missed the curve
// or cleared to infinity (cryptographically impossible for real parameters,
// but possible for tiny test fields).
func (p *Params) hashToPoint(data []byte) (point, bool) {
	qLen := (p.Q.BitLen() + 7) / 8
	msg := make([]byte, 4+len(data))
	copy(msg[4:], data)
	for i := 0; i < rejections; i++ {
		binary.BigEndian.PutUint32(msg[:4], uint32(i))
		x := new(big.Int).SetBytes(hashExpand(tagPoint, msg, qLen+16))
		x.Mod(x, p.Q)
		rhs := p.rhs(x)
		y, ok := p.sqrt(rhs)
		if !ok {
			continue
		}
		pt := p.mulScalarMont(point{x: x, y: y}, p.H)
		if pt.inf {
			continue
		}
		return pt, true
	}
	return infinity(), false
}

// sqrt computes a square root of a mod q when one exists, using the
// q ≡ 3 (mod 4) shortcut y = a^((q+1)/4).
func (p *Params) sqrt(a *big.Int) (*big.Int, bool) {
	if a.Sign() == 0 {
		return new(big.Int), true
	}
	y := new(big.Int).Exp(a, p.sqrtExp, p.Q)
	check := new(big.Int).Mul(y, y)
	check.Mod(check, p.Q)
	if check.Cmp(new(big.Int).Mod(a, p.Q)) != 0 {
		return nil, false
	}
	return y, true
}
