package pairing

import (
	"sync"
	"sync/atomic"
)

// precomp holds what one element has precomputed about itself, the same
// idea as PBC's element_pp and pairing_pp: the caller that keeps a hot base
// (a user's PK_UID, a revocation's UK1, an attribute public key, the
// generator) keeps its tables, and they are freed with it.
type precomp struct {
	prep lazy[*PreparedG]
	exp  lazy[*ExpTable]
}

// lazy is a value built by its first get. Later and concurrent gets wait
// for that one build and share its result.
type lazy[T any] struct {
	once sync.Once
	v    T
}

// get returns the value, building it on the first call, and counts the
// call as a build or a reuse.
func (l *lazy[T]) get(build func() T, builds, reuses *atomic.Uint64) T {
	built := false
	l.once.Do(func() {
		l.v = build()
		built = true
	})
	if built {
		builds.Add(1)
	} else {
		reuses.Add(1)
	}
	return l.v
}

// tables returns g's precomp, installing an empty one on first use.
func (g *G) tables() *precomp {
	if pc := g.pre.Load(); pc != nil {
		return pc
	}
	g.pre.CompareAndSwap(nil, new(precomp))
	return g.pre.Load()
}

// Prepared returns g's Miller-loop preparation, built on the first call and
// kept for g's lifetime; concurrent first callers wait for that one build.
// A preparation costs about one pairing and pays for itself from g's second
// pairing: a user's PK_UID pairs once per decryption, a revocation's UK1
// once per stored ciphertext. An equal element decoded or computed
// separately builds its own.
func (g *G) Prepared() *PreparedG {
	return g.tables().prep.get(func() *PreparedG { return g.p.prepare(g) }, &prepBuilds, &prepReuses)
}

// ExpTable returns g's exponentiation comb, built on the first call and
// kept for g's lifetime; concurrent first callers wait for that one build.
// A comb costs about one plain exponentiation and pays for itself from g's
// second exponentiation. The generator's comb is the one FixedBaseExp
// evaluates.
func (g *G) ExpTable() *ExpTable {
	return g.tables().exp.get(func() *ExpTable { return g.p.prepareExp(g) }, &tableBuilds, &tableReuses)
}
