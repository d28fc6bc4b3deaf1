package engine

import (
	"crypto/rand"
	"math/big"
	"testing"

	"maacs/internal/pairing"
)

// freshBases returns n distinct non-generator points, each with no comb
// built yet.
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

// TestExpCacheHitMiss pins the comb counters surfaced through
// engine.Stats: a fresh base's first comb is a miss, a repeat is a hit, and
// both views (pairing.SnapshotOpCounts and SnapshotStats) agree.
func TestExpCacheHitMiss(t *testing.T) {
	p := pairing.Test()
	bases := freshBases(t, p, 3)
	k := big.NewInt(31337)

	before := SnapshotStats()
	for _, g := range bases {
		g.ExpTable().Exp(k)
	}
	mid := SnapshotStats()
	if got := mid.ExpMisses - before.ExpMisses; got != 3 {
		t.Fatalf("fresh bases produced %d misses, want 3", got)
	}
	for i := 0; i < 8; i++ {
		bases[0].ExpTable().Exp(k)
	}
	after := SnapshotStats()
	if got := after.ExpHits - mid.ExpHits; got != 8 {
		t.Fatalf("repeat base produced %d hits, want 8", got)
	}
	if got := after.ExpMisses - mid.ExpMisses; got != 0 {
		t.Fatalf("repeat base produced %d misses, want 0", got)
	}
	ops := pairing.SnapshotOpCounts()
	if ops.TableReuses != after.ExpHits || ops.TableBuilds != after.ExpMisses {
		t.Fatal("pairing.SnapshotOpCounts and SnapshotStats disagree")
	}
}
