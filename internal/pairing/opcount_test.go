package pairing

import "testing"

// TestOpCountsPerOperation pins what each pairing entry point adds to the
// counters: Pair is one full pass and one final exponentiation, a prepared
// pairing or PairMul one pass that walks the cached lines, and an identity
// argument no work at all.
func TestOpCountsPerOperation(t *testing.T) {
	p := Test()
	g := p.Generator()
	h := g.Mul(g)
	pre := p.Prepare(g)
	for _, tc := range []struct {
		name string
		op   func() error
		want OpCounts
	}{
		{"Pair", func() error { _, err := p.Pair(g, h); return err }, OpCounts{1, 0, 1}},
		{"Pair with identity", func() error { _, err := p.Pair(p.OneG(), h); return err }, OpCounts{}},
		{"PreparedG.Pair", func() error { _, err := pre.Pair(h); return err }, OpCounts{1, 1, 1}},
		{"PairMul", func() error { _, err := pre.PairMul(h, h, g); return err }, OpCounts{1, 1, 1}},
		{"PairMul, prepared factor dropped", func() error { _, err := pre.PairMul(p.OneG(), h, g); return err }, OpCounts{1, 0, 1}},
		{"Prepare", func() error { p.Prepare(h); return nil }, OpCounts{}},
		{"GTGenerator", func() error { p.GTGenerator(); return nil }, OpCounts{}},
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
