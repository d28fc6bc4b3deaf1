package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"maacs/internal/pairing"
)

// decodeCacheCap bounds the decoded-element caches: decodeCacheCap G
// elements and a quarter as many G_T elements. A reader cycling through 64
// records, each a six-row and a one-row ciphertext, decodes 576 distinct G
// and 128 distinct G_T encodings. At paper scale an entry holds about 610 B
// (G) or 560 B (G_T), so the full caches take about 0.73 MiB.
const decodeCacheCap = 1024

var (
	decodedG  = newPointCache[*pairing.G](decodeCacheCap)
	decodedGT = newPointCache[*pairing.GT](decodeCacheCap / 4)
)

// DecodeG is Params.UnmarshalG behind a bounded LRU keyed by the exact
// encoding. The first decode of an encoding runs every check UnmarshalG
// runs (length, flag, decompression, curve membership, the order-r check);
// a later decode of the same bytes returns the element those checks
// accepted. Rejected encodings are never cached, so they fail the full
// check every time. The cache pays only when this process decodes an
// encoding it has decoded before, such as a reader re-fetching a record or
// an owner re-reading ciphertexts a revocation left unchanged.
//
// The returned element is shared with every other caller that decoded the
// same bytes, which is safe because G values are immutable. Only public
// ciphertext elements belong here: key material must not sit in a
// process-wide cache.
func DecodeG(p *pairing.Params, data []byte) (*pairing.G, error) {
	return decodedG.get(cacheKey{params: p, enc: string(data)}, func() (*pairing.G, error) {
		return p.UnmarshalG(data)
	})
}

// DecodeGT is DecodeG for G_T elements: Params.UnmarshalGT (length, range,
// nonzero and the order-r subgroup check) behind its own bounded LRU.
func DecodeGT(p *pairing.Params, data []byte) (*pairing.GT, error) {
	return decodedGT.get(cacheKey{params: p, enc: string(data)}, func() (*pairing.GT, error) {
		return p.UnmarshalGT(data)
	})
}

// DecodeCacheStats reports the decoded-element caches' hits and misses,
// G and G_T together. A rejected encoding counts as a miss.
func DecodeCacheStats() (hits, misses uint64) {
	return decodedG.hits.Load() + decodedGT.hits.Load(), decodedG.misses.Load() + decodedGT.misses.Load()
}

// cacheKey identifies a cached value: same parameter set, same encoding.
type cacheKey struct {
	params *pairing.Params
	enc    string
}

type cacheEntry[V any] struct {
	key cacheKey
	val V
}

// pointCache is a lock-guarded LRU of decoded group elements keyed by their
// encoding.
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
