package pairing

import "testing"

// TestOpCountsPerOperation pins what each pairing entry point adds to the
// counters: Pair is one full pass and one final exponentiation, a prepared
// pairing or PairMul one pass that walks the cached lines, and an identity
// argument no work at all. An element's first Prepared or ExpTable counts
// one build, every later call one reuse, and the builders count nothing.
func TestOpCountsPerOperation(t *testing.T) {
	p := Test()
	g := p.Generator()
	h := g.Mul(g)
	pre := p.prepare(g)
	fresh := h.Mul(g)
	for _, tc := range []struct {
		name string
		op   func() error
		want OpCounts
	}{
		{"Pair", func() error { _, err := p.Pair(g, h); return err }, OpCounts{MillerPasses: 1, FinalExps: 1}},
		{"Pair with identity", func() error { _, err := p.Pair(p.OneG(), h); return err }, OpCounts{}},
		{"PreparedG.Pair", func() error { _, err := pre.Pair(h); return err }, OpCounts{MillerPasses: 1, PreparedWalks: 1, FinalExps: 1}},
		{"PairMul", func() error { _, err := pre.PairMul(h, h, g); return err }, OpCounts{MillerPasses: 1, PreparedWalks: 1, FinalExps: 1}},
		{"PairMul, prepared factor dropped", func() error { _, err := pre.PairMul(p.OneG(), h, g); return err }, OpCounts{MillerPasses: 1, FinalExps: 1}},
		{"Prepare", func() error { p.prepare(h); return nil }, OpCounts{}},
		{"GTGenerator", func() error { p.GTGenerator(); return nil }, OpCounts{}},
		{"G.Prepared, first call", func() error { fresh.Prepared(); return nil }, OpCounts{PrepBuilds: 1}},
		{"G.Prepared, repeat", func() error { fresh.Prepared(); return nil }, OpCounts{PrepReuses: 1}},
		{"G.ExpTable, first call", func() error { fresh.ExpTable(); return nil }, OpCounts{TableBuilds: 1}},
		{"G.ExpTable, repeat", func() error { fresh.ExpTable(); return nil }, OpCounts{TableReuses: 1}},
		{"prepareExp", func() error { p.prepareExp(h); return nil }, OpCounts{}},
	} {
		before := SnapshotOpCounts()
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := SnapshotOpCounts().Delta(before); got != tc.want {
			t.Errorf("%s: counted %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
