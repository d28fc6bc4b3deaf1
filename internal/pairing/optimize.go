package pairing

import "math/big"

// This file holds the exponentiation paths that go beyond one plain ladder:
// a multi-exponentiation that shares one doubling chain across bases and
// applies each exponent as its signed residue (decryption aggregates its
// ciphertext rows and key components with it), and precomputed-table
// exponentiation for hot bases (the generator, and the public keys that
// encryption and revocation use). Each result is bit-identical to the
// plain operation it replaces.
//
// A table is a limb-native Montgomery comb (affine entries, mixed-addition
// evaluation, zero heap allocations per exponentiation) that each element
// builds for itself on first use (G.ExpTable); FixedBaseExp evaluates the
// generator's.

// MultiExp computes Π_i bases[i]^ks[i] with one interleaved NAF ladder in
// Montgomery Jacobian coordinates and a single normalization (one field
// inversion). Each exponent is reduced mod R and applied as its residue of
// least absolute value: a residue above R/2 becomes R − k on the negated
// base, which costs nothing. A small exponent of either sign therefore
// costs a few doublings, not |R| of them, and the ladder runs only as long
// as the widest residue. Identity bases and zero residues are skipped;
// every other term costs one mixed addition per nonzero NAF digit, an
// exponent of 1 included. montJacAddAffine handles doubling and
// cancellation, so no sum needs a special case. Mismatched lengths and nil
// entries are ErrBadEncoding, an element of another parameter set
// ErrMixedParams.
func (p *Params) MultiExp(bases []*G, ks []*big.Int) (*G, error) {
	if len(bases) != len(ks) {
		return nil, ErrBadEncoding
	}
	type term struct {
		pos, neg montAffine // the base and its negation, for digits +1 and −1
		digits   []int8     // NAF of the signed residue's magnitude, most significant first
	}
	c := p.fpc
	halfR := new(big.Int).Rsh(p.R, 1) // (R−1)/2: R is an odd prime
	terms := make([]term, 0, len(bases))
	width := 0
	for i, g := range bases {
		if g == nil || ks[i] == nil {
			return nil, ErrBadEncoding
		}
		if g.p != p {
			return nil, ErrMixedParams
		}
		k := new(big.Int).Mod(ks[i], p.R)
		if g.pt.inf || k.Sign() == 0 {
			continue
		}
		t := term{pos: c.montFromPoint(g.pt)}
		t.neg.x = t.pos.x
		c.neg(&t.neg.y, &t.pos.y)
		if k.Cmp(halfR) > 0 {
			k.Sub(p.R, k)
			t.pos, t.neg = t.neg, t.pos
		}
		t.digits = nafDigits(k)
		width = max(width, len(t.digits))
		terms = append(terms, t)
	}
	var acc montJac
	for j := width - 1; j >= 0; j-- {
		c.montJacDouble(&acc)
		for i := range terms {
			t := &terms[i]
			n := len(t.digits)
			if j >= n {
				continue
			}
			switch t.digits[n-1-j] {
			case 1:
				c.montJacAddAffine(&acc, &t.pos)
			case -1:
				c.montJacAddAffine(&acc, &t.neg)
			}
		}
	}
	return &G{p: p, pt: c.montJacToPoint(&acc)}, nil
}

// fixedBaseWindow is the window width in bits for precomputed tables.
const fixedBaseWindow = 4

// combEntriesPerRow is the number of stored multiples per window position:
// w·2^(4j)·base for w = 1..15. The zero window contributes nothing, so it
// is not stored.
const combEntriesPerRow = 1<<fixedBaseWindow - 1

// montComb is a limb-native windowed comb: rows[j][w-1] holds the affine
// Montgomery-form point w·2^(fixedBaseWindow·j)·base. Because the base has
// prime order R and 0 < w·2^(4j) mod R < R, no entry is ever the point at
// infinity, so entries need no infinity flag and evaluation is pure mixed
// addition.
type montComb struct {
	rows [][]montAffine
}

// combWindows is the number of window positions needed to cover any scalar
// reduced mod R.
func (p *Params) combWindows() int {
	return (p.R.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
}

// montJacBatchToAffine normalizes a batch of non-infinity Jacobian points
// with a single shared inversion (Montgomery's trick via batchInv).
func (c *fpContext) montJacBatchToAffine(js []montJac, out []montAffine) {
	zs := make([]fpElement, len(js))
	ptrs := make([]*fpElement, len(js))
	for i := range js {
		zs[i] = js[i].z
		ptrs[i] = &zs[i]
	}
	c.batchInv(ptrs)
	for i := range js {
		var zi2, zi3 fpElement
		c.mul(&zi2, &zs[i], &zs[i])
		c.mul(&zi3, &zi2, &zs[i])
		c.mul(&out[i].x, &js[i].x, &zi2)
		c.mul(&out[i].y, &js[i].y, &zi3)
	}
}

// buildMontComb precomputes the comb for base (affine, not infinity).
// Cost: 4·(windows−1) Jacobian doublings for the spine 2^(4j)·base,
// 14·windows mixed additions for the row chains, and two batch
// normalizations — about the price of one plain exponentiation, amortized
// over the base's later exponentiations.
func (p *Params) buildMontComb(base point) *montComb {
	c := p.fpc
	windows := p.combWindows()
	chain := make([]montJac, windows)
	a0 := c.montFromPoint(base)
	chain[0] = montJac{x: a0.x, y: a0.y, z: c.one}
	for j := 1; j < windows; j++ {
		chain[j] = chain[j-1]
		for d := 0; d < fixedBaseWindow; d++ {
			c.montJacDouble(&chain[j])
		}
	}
	spine := make([]montAffine, windows)
	c.montJacBatchToAffine(chain, spine)

	entries := make([]montJac, windows*combEntriesPerRow)
	for j := 0; j < windows; j++ {
		acc := montJac{x: spine[j].x, y: spine[j].y, z: c.one}
		entries[j*combEntriesPerRow] = acc
		for w := 2; w <= combEntriesPerRow; w++ {
			c.montJacAddAffine(&acc, &spine[j])
			entries[j*combEntriesPerRow+w-1] = acc
		}
	}
	flat := make([]montAffine, len(entries))
	c.montJacBatchToAffine(entries, flat)

	mc := &montComb{rows: make([][]montAffine, windows)}
	for j := 0; j < windows; j++ {
		mc.rows[j] = flat[j*combEntriesPerRow : (j+1)*combEntriesPerRow : (j+1)*combEntriesPerRow]
	}
	return mc
}

// combExpMont is the zero-allocation evaluation core: one mixed addition
// per nonzero window of kk (already reduced mod R), then a single inline
// normalization. Returns false when the result is the point at infinity
// (kk = 0). Pinned at 0 allocs/op by TestCombExpMontAllocs.
func (p *Params) combExpMont(dst *montAffine, mc *montComb, kk *big.Int) bool {
	c := p.fpc
	var acc montJac
	words := kk.Bits()
	bitLen := kk.BitLen()
	for j := 0; j*fixedBaseWindow < bitLen; j++ {
		if w := extractWindow(words, j*fixedBaseWindow); w != 0 {
			c.montJacAddAffine(&acc, &mc.rows[j][w-1])
		}
	}
	if c.montJacIsInf(&acc) {
		return false
	}
	var zi, zi2, zi3 fpElement
	c.inv(&zi, &acc.z)
	c.mul(&zi2, &zi, &zi)
	c.mul(&zi3, &zi2, &zi)
	c.mul(&dst.x, &acc.x, &zi2)
	c.mul(&dst.y, &acc.y, &zi3)
	return true
}

// combPointMont converts a normalized comb result back to a canonical
// big.Int point. This is the only allocation site on the Montgomery path.
func (p *Params) combPointMont(out *montAffine) *G {
	c := p.fpc
	return &G{p: p, pt: point{x: c.toBig(&out.x), y: c.toBig(&out.y)}}
}

// FixedBaseExp computes g^k for the generator g using the precomputed
// comb: one limb-native mixed addition per nonzero window instead of a
// double-and-add pass, with a single inversion at the final normalization.
// k is reduced mod R. The result is bit-identical to Generator().Exp(k).
func (p *Params) FixedBaseExp(k *big.Int) *G {
	return p.gen.ExpTable().Exp(k)
}

// extractWindow reads fixedBaseWindow bits starting at bit offset from the
// little-endian word representation.
func extractWindow(words []big.Word, offset int) int {
	const wordBits = 32 << (^big.Word(0) >> 63) // 32 or 64
	word := offset / wordBits
	if word >= len(words) {
		return 0
	}
	shift := offset % wordBits
	v := uint(words[word] >> shift)
	if shift+fixedBaseWindow > wordBits && word+1 < len(words) {
		v |= uint(words[word+1]) << (wordBits - shift)
	}
	return int(v & (1<<fixedBaseWindow - 1))
}

// ExpTable is a base's windowed comb, so each exponentiation costs one
// mixed addition per nonzero window (≤ ⌈|R|/4⌉ of them) plus one
// inversion. Building the comb costs about one plain exponentiation, so a
// table pays for itself from the second use: G.ExpTable keeps it with its
// base (an attribute public key, say, which its owner exponentiates once
// per stored ciphertext during a revocation).
type ExpTable struct {
	p *Params
	// mont is the base's comb, or nil when the base is the identity.
	mont *montComb
}

// prepareExp builds the exponentiation table for g (G.ExpTable keeps the
// result with g).
func (p *Params) prepareExp(g *G) *ExpTable {
	t := &ExpTable{p: p}
	if !g.pt.inf {
		t.mont = p.buildMontComb(g.pt)
	}
	return t
}

// Exp computes base^k using the table. k is normalized mod R before any
// table walk, so zero, negative, and oversized scalars touch at most
// ⌈|R|/4⌉ comb rows; the result is bit-identical to base.Exp(k).
func (t *ExpTable) Exp(k *big.Int) *G {
	p := t.p
	if t.mont == nil {
		return p.OneG()
	}
	kk := new(big.Int).Mod(k, p.R)
	var out montAffine
	if !p.combExpMont(&out, t.mont, kk) {
		return p.OneG()
	}
	return p.combPointMont(&out)
}
