package engine

import (
	"crypto/rand"
	"testing"

	"maacs/internal/pairing"
)

func randomPairs(t *testing.T, p *pairing.Params, n int) (as, bs []*pairing.G) {
	t.Helper()
	for i := 0; i < n; i++ {
		a, _, err := p.RandomG(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := p.RandomG(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

func TestPreparedCacheHits(t *testing.T) {
	p := pairing.Test()
	a, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := PreparedCacheStats()
	pre1 := Prepared(a)
	pre2 := Prepared(a.Clone()) // equal value, distinct pointer: must hit
	h1, m1 := PreparedCacheStats()
	if pre1 != pre2 {
		t.Fatal("cache returned distinct preparations for the same point")
	}
	if m1 != m0+1 {
		t.Fatalf("misses went %d → %d, want exactly one new miss", m0, m1)
	}
	if h1 != h0+1 {
		t.Fatalf("hits went %d → %d, want exactly one new hit", h0, h1)
	}
	b, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := Prepared(b).Pair(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Pair(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !gt.Equal(want) {
		t.Fatal("cached preparation pairs wrong")
	}
}

func TestPreparedCacheBounded(t *testing.T) {
	p := pairing.Test()
	for i := 0; i < preparedCacheCap+32; i++ {
		g, _, err := p.RandomG(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		Prepared(g)
	}
	if n := PreparedCacheLen(); n > preparedCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", n, preparedCacheCap)
	}
}
