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

// TestPreparedCacheHits pins what SnapshotStats reports for preparations:
// an element's first G.Prepared is a miss, every later one a hit on the
// same preparation, and the preparation pairs like Pair.
func TestPreparedCacheHits(t *testing.T) {
	p := pairing.Test()
	a, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	before := SnapshotStats()
	pre1 := a.Prepared()
	pre2 := a.Prepared()
	d := SnapshotStats().Delta(before)
	if pre1 != pre2 {
		t.Fatal("one element returned two preparations")
	}
	if d.PreparedMisses != 1 || d.PreparedHits != 1 {
		t.Fatalf("two Prepared calls counted %d misses and %d hits, want one each", d.PreparedMisses, d.PreparedHits)
	}
	b, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := b.Prepared().Pair(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Pair(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !gt.Equal(want) {
		t.Fatal("kept preparation pairs wrong")
	}
}
