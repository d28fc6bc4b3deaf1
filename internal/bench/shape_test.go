package bench

import (
	"crypto/rand"
	"testing"

	"maacs/internal/pairing"
)

// TestPaperShapesOnTestCurve is a regression test for the paper's
// hardware-independent evaluation claims, run on the fast curve. It is the
// CI-grade version of the verdicts cmd/maacs-bench prints at paper scale.
// Encryption is timed: ours wins by about 2× at every point. Decryption
// is counted, because the paper's reason for its shape is a count — Eq. 1
// pays n_A pairings more than Lewko's 2·|rows used| — and the time gap it
// makes on the test curve (about 1.1×) is smaller than the noise of other
// test binaries sharing the CPUs.
func TestPaperShapesOnTestCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-shape test skipped in -short mode")
	}
	spec := SweepSpec{
		Params: pairing.Test(),
		Rnd:    rand.Reader,
		Xs:     []int{2, 4, 6},
		Fixed:  4,
		Trials: 5,
	}
	encA, err := SweepAuthorities(spec, OpEncrypt)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := encA.CheckShape(OpEncrypt); !ok {
		t.Errorf("Fig 3(a) shape violated: %s", verdict)
	}
	decA, err := SweepAuthorities(spec, OpDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	checkDecryptionCounts(t, decA, func(x int) (int, int) { return x, x * spec.Fixed })
	encK, err := SweepAttrs(spec, OpEncrypt)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := encK.CheckShape(OpEncrypt); !ok {
		t.Errorf("Fig 4(a) shape violated: %s", verdict)
	}
	decK, err := SweepAttrs(spec, OpDecrypt)
	if err != nil {
		t.Fatal(err)
	}
	checkDecryptionCounts(t, decK, func(x int) (int, int) { return spec.Fixed, spec.Fixed * x })

	// Linearity sanity: encryption time at x=6 must be meaningfully larger
	// than at x=2 for both schemes (both are Θ(l)).
	first, last := encA.Points[0], encA.Points[len(encA.Points)-1]
	if last.Ours <= first.Ours || last.Lewko <= first.Lewko {
		t.Errorf("encryption not growing with workload: first=%+v last=%+v", first, last)
	}
}

// checkDecryptionCounts asserts the pairing counts behind Figs. 3(b) and
// 4(b) at every point of a decryption series: Eq. 1 as printed costs
// n_A + 2l pairings and Lewko's decryption 2l, each a full Miller pass and
// a final exponentiation. shape maps the swept x to n_A and l (every row of
// the figures' AND policy is used).
func checkDecryptionCounts(t *testing.T, s *Series, shape func(x int) (nA, l int)) {
	t.Helper()
	pairings := func(n int) pairing.OpCounts {
		return pairing.OpCounts{MillerPasses: uint64(n), FinalExps: uint64(n)}
	}
	for _, pt := range s.Points {
		nA, l := shape(pt.X)
		if want := pairings(nA + 2*l); pt.OursOps != want {
			t.Errorf("%s at x=%d: Eq. 1 ran %+v, want n_A + 2l = %d pairings", s.Name, pt.X, pt.OursOps, nA+2*l)
		}
		if want := pairings(2 * l); pt.LewkoOps != want {
			t.Errorf("%s at x=%d: Lewko ran %+v, want 2l = %d pairings", s.Name, pt.X, pt.LewkoOps, 2*l)
		}
	}
}

// TestRevocationShapesOnTestCurve pins the revocation-efficiency claims.
func TestRevocationShapesOnTestCurve(t *testing.T) {
	res, err := MeasureRevocation(Config{
		Params:            pairing.Test(),
		Authorities:       2,
		AttrsPerAuthority: 3,
		Rnd:               rand.Reader,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok, verdict := res.CheckShape(); !ok {
		t.Errorf("revocation shape violated: %s", verdict)
	}
	if res.PirrettiRefresh <= 0 || res.PirrettiUsers == 0 {
		t.Error("pirretti baseline not measured")
	}
}
