package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"maacs/internal/pairing"
)

// PairProd computes Π_i e(as[i], bs[i]) on the pool. The index range is
// split into one contiguous chunk per worker; each chunk shares a single
// final exponentiation through Params.PairProd and the chunk products are
// multiplied in index order. Because the final exponentiation is a group
// homomorphism the result is the same field element the serial
// Params.PairProd computes.
func (p *Pool) PairProd(params *pairing.Params, as, bs []*pairing.G) (*pairing.GT, error) {
	n := len(as)
	if n != len(bs) {
		return nil, pairing.ErrBadEncoding
	}
	// One final exponentiation per chunk only pays off when a chunk bundles
	// several Miller loops.
	chunks := p.workers
	if chunks > n/2 {
		chunks = n / 2
	}
	if chunks <= 1 {
		return params.PairProd(as, bs)
	}
	chunksScheduled.Add(uint64(chunks))
	parts, err := Collect(p, chunks, func(c int) (*pairing.GT, error) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		return params.PairProd(as[lo:hi], bs[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	acc := parts[0]
	for _, part := range parts[1:] {
		acc = acc.Mul(part)
	}
	return acc, nil
}

// PairAll computes e(a, bs[i]) for every i on the pool, preparing the shared
// first argument once through the prepared-point cache.
func (p *Pool) PairAll(a *pairing.G, bs []*pairing.G) ([]*pairing.GT, error) {
	pre := Prepared(a)
	return Collect(p, len(bs), func(i int) (*pairing.GT, error) {
		return pre.Pair(bs[i])
	})
}

// preparedCacheCap bounds the prepared-point and exp-table caches. Their
// hot sets are the bases in current use: C' and PK_UID for a prepared
// decryption, the attribute public keys an encryption uses (up to 100 in
// the paper's figure sweeps), and one revocation's UK1 and PK_x. They
// do not grow with the number of revocations because a base leaves both
// caches through Forget when it retires: the server forgets each UK1 once
// its re-encryption request ends, and an owner forgets each PK_x it
// replaces. A smaller cap would make an encryption cycling through more
// attribute bases than the cap rebuild every table.
const preparedCacheCap = 128

// cacheKey identifies a cached value: same parameter set, same encoding.
type cacheKey struct {
	params *pairing.Params
	enc    string
}

// pointKey keys g by its canonical encoding.
func pointKey(g *pairing.G) cacheKey {
	return cacheKey{params: g.Params(), enc: string(g.Marshal())}
}

type cacheEntry[V any] struct {
	key cacheKey
	val V
}

// pointCache is a lock-guarded LRU of values derived from a group element's
// encoding (Miller-loop preparations, exponentiation tables, decoded
// elements).
type pointCache[V any] struct {
	limit int // entries kept; the least recently used beyond it is evicted

	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	order   list.List // front = most recently used; element values are *cacheEntry[V]

	hits, misses atomic.Uint64
}

func newPointCache[V any](limit int) *pointCache[V] {
	return &pointCache[V]{limit: limit, entries: make(map[cacheKey]*list.Element)}
}

// get returns the cached value for key, computing it with build on a miss.
// build runs outside the lock: it does the expensive group work, and two
// goroutines racing on the same fresh key merely duplicate it once. A build
// that fails is counted as a miss, its error returned, and nothing cached.
func (c *pointCache[V]) get(key cacheKey, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		val := el.Value.(*cacheEntry[V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return val, nil
	}
	c.mu.Unlock()

	val, err := build()
	c.misses.Add(1)
	if err != nil {
		return val, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).val, nil
	}
	c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
	for len(c.entries) > c.limit {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry[V]).key)
	}
	return val, nil
}

// forget drops key's entry, if any.
func (c *pointCache[V]) forget(key cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

func (c *pointCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

var (
	preparations = newPointCache[*pairing.PreparedG](preparedCacheCap)
	expTables    = newPointCache[*pairing.ExpTable](preparedCacheCap)
)

// Prepared returns the Miller-loop preparation of g, serving repeats from
// the LRU cache. PreparedG values are immutable after construction, so a
// cached preparation may be used by any number of goroutines.
func Prepared(g *pairing.G) *pairing.PreparedG {
	pre, _ := preparations.get(pointKey(g), func() (*pairing.PreparedG, error) { // never fails
		return g.Params().Prepare(g), nil
	})
	return pre
}

// PreparedExp returns the exponentiation table (a 4-bit comb) of g, serving
// repeats from the LRU cache. Building a table costs about one
// exponentiation and each use walks at most ⌈|R|/4⌉ comb rows, so the
// table pays for itself from the second exponentiation of a hot base (an
// attribute public key during revocation, say).
func PreparedExp(g *pairing.G) *pairing.ExpTable {
	t, _ := expTables.get(pointKey(g), func() (*pairing.ExpTable, error) { // never fails
		return g.Params().PrepareExp(g), nil
	})
	return t
}

// Forget drops g's Miller-loop preparation and exponentiation table, if
// cached. Callers forget a base when it retires, so that each revocation
// does not leave a dead preparation (about 48 KiB) and a dead table (about
// 89 KiB at paper scale) behind until the LRU evicts them. Forgetting a base
// that is still in use costs only a rebuild on its next use.
func Forget(g *pairing.G) {
	key := pointKey(g)
	preparations.forget(key)
	expTables.forget(key)
}

// PreparedCacheStats reports prepared-point cache effectiveness (used by
// tests and the benchmark report).
func PreparedCacheStats() (hits, misses uint64) {
	return preparations.hits.Load(), preparations.misses.Load()
}

// PreparedCacheLen reports the number of cached preparations.
func PreparedCacheLen() int {
	return preparations.len()
}

// ExpCacheStats reports exp-table cache effectiveness.
func ExpCacheStats() (hits, misses uint64) {
	return expTables.hits.Load(), expTables.misses.Load()
}

// ExpCacheLen reports the number of cached exponentiation tables.
func ExpCacheLen() int {
	return expTables.len()
}
