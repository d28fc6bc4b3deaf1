package engine

import (
	"crypto/rand"
	"math/big"
	"testing"

	"maacs/internal/pairing"
)

// freshBases returns n distinct non-generator points, so each PreparedExp
// call keys a distinct cache entry.
func freshBases(t *testing.T, p *pairing.Params, n int) []*pairing.G {
	t.Helper()
	out := make([]*pairing.G, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; {
		k, err := p.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Generator().Exp(k)
		enc := string(g.Marshal())
		if seen[enc] || g.Equal(p.Generator()) {
			continue
		}
		seen[enc] = true
		out[i] = g
		i++
	}
	return out
}

// TestExpCacheHitMiss pins the cache counters surfaced through
// engine.Stats: a fresh base is a miss, a repeat is a hit, and both views
// (ExpCacheStats and SnapshotStats) agree.
func TestExpCacheHitMiss(t *testing.T) {
	p := pairing.Test()
	bases := freshBases(t, p, 3)
	k := big.NewInt(31337)

	before := SnapshotStats()
	for _, g := range bases {
		PreparedExp(g).Exp(k)
	}
	mid := SnapshotStats()
	if got := mid.ExpMisses - before.ExpMisses; got != 3 {
		t.Fatalf("fresh bases produced %d misses, want 3", got)
	}
	for i := 0; i < 4; i++ {
		PreparedExp(bases[0]).Exp(k)
	}
	after := SnapshotStats()
	if got := after.ExpHits - mid.ExpHits; got != 4 {
		t.Fatalf("repeat base produced %d hits, want 4", got)
	}
	if got := after.ExpMisses - mid.ExpMisses; got != 0 {
		t.Fatalf("repeat base produced %d misses, want 0", got)
	}
	h, m := ExpCacheStats()
	if h != after.ExpHits || m != after.ExpMisses {
		t.Fatal("ExpCacheStats and SnapshotStats disagree")
	}
}

// TestExpCacheEviction shrinks the cap and checks LRU behavior: the cache
// never exceeds the cap, the most recent bases stay resident, and an
// evicted base misses again on its next use.
func TestExpCacheEviction(t *testing.T) {
	old := expTables.limit
	expTables.limit = 4
	defer func() { expTables.limit = old }()

	p := pairing.Test()
	bases := freshBases(t, p, 10)
	k := big.NewInt(54321)
	for _, g := range bases {
		PreparedExp(g).Exp(k)
	}
	if n := ExpCacheLen(); n > 4 {
		t.Fatalf("cache holds %d entries, cap is 4", n)
	}

	hits0, misses0 := ExpCacheStats()
	PreparedExp(bases[9]).Exp(k) // most recent: must be resident
	hits1, misses1 := ExpCacheStats()
	if hits1 != hits0+1 || misses1 != misses0 {
		t.Fatalf("recent base: hits %d→%d misses %d→%d, want one hit", hits0, hits1, misses0, misses1)
	}
	PreparedExp(bases[0]).Exp(k) // oldest: must have been evicted
	hits2, misses2 := ExpCacheStats()
	if misses2 != misses1+1 || hits2 != hits1 {
		t.Fatalf("evicted base: hits %d→%d misses %d→%d, want one miss", hits1, hits2, misses1, misses2)
	}

	// The evicted base still answers correctly after rebuilding.
	want := bases[0].Exp(k)
	if !PreparedExp(bases[0]).Exp(k).Equal(want) {
		t.Fatal("rebuilt table disagrees with direct exponentiation")
	}
}
