package pairing

import (
	"math/big"
	"sync"
)

// This file holds performance extensions that go beyond what the paper's
// evaluation used: a multi-pairing product that shares one final
// exponentiation across Miller loops, and precomputed-table exponentiation
// (a fixed-base comb for the generator, and per-base tables for hot public
// keys). The scheme implementations use the plain operations so their cost
// profiles match the paper; these variants are exercised by the ablation
// benchmarks and are available to API users who want the speed.
//
// Both table kinds are limb-native Montgomery combs (affine entries,
// mixed-addition evaluation, zero heap allocations per exponentiation).
// The generator's comb is built lazily under a sync.Once, so concurrent
// first use stays safe; PrepareExp builds a per-base comb right away.

// PairProd computes Π_i e(a_i, b_i) with a single final exponentiation:
// the Miller-loop values multiply in F_q² before the (q²−1)/r power, which
// is sound because the final exponentiation is a group homomorphism.
func (p *Params) PairProd(as, bs []*G) (*GT, error) {
	if len(as) != len(bs) {
		return nil, ErrBadEncoding
	}
	acc := fp2One()
	for i := range as {
		if as[i].p != p || bs[i].p != p {
			return nil, ErrMixedParams
		}
		if as[i].pt.inf || bs[i].pt.inf {
			continue
		}
		acc = p.fp2Mul(acc, p.millerLoop(as[i].pt, bs[i].pt))
	}
	c := p.fpc
	var m fp2m
	c.fp2mFromFp2(&m, acc)
	u := p.finalExpMont(&m)
	return &GT{p: p, v: c.fp2mToFp2(&u)}, nil
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
// by the table caches.
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

// fixedBaseTable holds the generator's comb, built lazily on first use.
type fixedBaseTable struct {
	once sync.Once
	mont *montComb
}

var fixedTables sync.Map // *Params → *fixedBaseTable

func (p *Params) fixedTable() *fixedBaseTable {
	v, _ := fixedTables.LoadOrStore(p, &fixedBaseTable{})
	return v.(*fixedBaseTable)
}

func (t *fixedBaseTable) montRows(p *Params) *montComb {
	t.once.Do(func() {
		t.mont = p.buildMontComb(p.gen)
	})
	return t.mont
}

// FixedBaseExp computes g^k for the generator g using the precomputed
// comb: one limb-native mixed addition per nonzero window instead of a
// double-and-add pass, with a single inversion at the final normalization.
// k is reduced mod R. The result is bit-identical to Generator().Exp(k).
func (p *Params) FixedBaseExp(k *big.Int) *G {
	kk := new(big.Int).Mod(k, p.R)
	var out montAffine
	if !p.combExpMont(&out, p.fixedTable().montRows(p), kk) {
		return p.OneG()
	}
	return p.combPointMont(&out)
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

// ExpTable is the arbitrary-base analogue of the generator's fixed-base
// comb, with the same layout, so each exponentiation costs one mixed
// addition per nonzero window (≤ ⌈|R|/4⌉ of them) plus one inversion.
// Building the comb costs about one plain exponentiation, so a table pays
// for itself from the second use; the engine layer caches tables for hot
// bases (e.g. attribute public keys, which owners exponentiate once per
// stored ciphertext during a revocation).
type ExpTable struct {
	p *Params
	// mont is the base's comb, or nil when the base is the identity.
	mont *montComb
}

// PrepareExp builds the exponentiation table for g.
func (p *Params) PrepareExp(g *G) *ExpTable {
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
