package pairing

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"
)

// TestElementTablesBuiltOnce races n goroutines on a fresh element's first
// Prepared and ExpTable calls. Every caller must get the same preparation
// and the same comb, the counters must show one build of each and n−1
// reuses, and both must compute what the unexported builders and the plain
// Pair and Exp compute, byte for byte. The race gate in scripts/check.sh
// runs it under -race.
func TestElementTablesBuiltOnce(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name string
		p    *Params
	}{{"test", Test()}, {"paper", Default()}} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			a, _ := p.RandomScalar(rand.Reader)
			g := p.Generator().Exp(a)
			q, _, err := p.RandomG(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			k, _ := p.RandomScalar(rand.Reader)

			preps := make([]*PreparedG, n)
			tables := make([]*ExpTable, n)
			before := SnapshotOpCounts()
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					preps[i], tables[i] = g.Prepared(), g.ExpTable()
				}(i)
			}
			wg.Wait()
			d := SnapshotOpCounts().Delta(before)
			if d.PrepBuilds != 1 || d.PrepReuses != n-1 || d.TableBuilds != 1 || d.TableReuses != n-1 {
				t.Fatalf("%d concurrent first uses counted %+v, want one build and %d reuses of each", n, d, n-1)
			}
			for i := 1; i < n; i++ {
				if preps[i] != preps[0] || tables[i] != tables[0] {
					t.Fatalf("caller %d got a different preparation or comb", i)
				}
			}

			pairs := map[string]*PreparedG{"G.Prepared": preps[0], "prepare": p.prepare(g)}
			want := p.MustPair(g, q).Marshal()
			for name, pre := range pairs {
				got, err := pre.Pair(q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Marshal(), want) {
					t.Fatalf("%s pairs differently from Pair", name)
				}
			}
			combs := map[string]*ExpTable{"G.ExpTable": tables[0], "prepareExp": p.prepareExp(g)}
			wantExp := g.Exp(k).Marshal()
			for name, tbl := range combs {
				if !bytes.Equal(tbl.Exp(k).Marshal(), wantExp) {
					t.Fatalf("%s exponentiates differently from Exp", name)
				}
			}
		})
	}
}

// TestGeneratorIsShared pins that Generator returns one element per Params,
// so FixedBaseExp and every caller exponentiating the generator through its
// ExpTable share one comb.
func TestGeneratorIsShared(t *testing.T) {
	p := Test()
	if p.Generator() != p.Generator() {
		t.Fatal("Generator returned two elements")
	}
	if p.Generator().ExpTable() != p.Generator().ExpTable() {
		t.Fatal("the generator built two combs")
	}
	k, _ := p.RandomScalar(rand.Reader)
	before := SnapshotOpCounts()
	got := p.FixedBaseExp(k)
	if d := SnapshotOpCounts().Delta(before); d.TableBuilds != 0 || d.TableReuses != 1 {
		t.Fatalf("FixedBaseExp after the generator's comb exists counted %+v, want one reuse", d)
	}
	if !got.Equal(p.Generator().Exp(k)) {
		t.Fatal("FixedBaseExp disagrees with Generator().Exp")
	}
}
