package bench

import (
	"crypto/rand"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestMeasurePairingShapes(t *testing.T) {
	r, err := MeasurePairing(pairing.Test(), rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantFields := []string{"fp-mul", "fp-square", "fp-inv", "fp2-mul"}
	if len(r.Fields) != len(wantFields) {
		t.Fatalf("got %d field rows, want %d", len(r.Fields), len(wantFields))
	}
	for i, f := range r.Fields {
		if f.Op != wantFields[i] {
			t.Fatalf("field row %d is %q, want %q", i, f.Op, wantFields[i])
		}
		if f.MontgomeryNs <= 0 || f.BigIntNs <= 0 || f.Speedup <= 0 {
			t.Fatalf("field row %q has unmeasured columns: %+v", f.Op, f)
		}
		if f.MontgomeryAllocs != 0 {
			t.Fatalf("field row %q: Montgomery path allocates %v/op", f.Op, f.MontgomeryAllocs)
		}
		if f.Reps < minFieldReps {
			t.Fatalf("field row %q ran %d reps, floor is %d", f.Op, f.Reps, minFieldReps)
		}
	}
	wantOps := []string{"pair", "g-exp", "gt-exp", "g-decode"}
	if len(r.Points) != len(wantOps) {
		t.Fatalf("got %d points, want %d", len(r.Points), len(wantOps))
	}
	for i, pt := range r.Points {
		if pt.Op != wantOps[i] {
			t.Fatalf("point %d is %q, want %q", i, pt.Op, wantOps[i])
		}
		if pt.MontgomeryNs <= 0 || pt.ReferenceNs <= 0 {
			t.Fatalf("point %q has unmeasured kernels: %+v", pt.Op, pt)
		}
		if pt.Speedup <= 0 {
			t.Fatalf("point %q has an invalid speedup: %+v", pt.Op, pt)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	for _, want := range []string{"montgomery", "reference", "fp-mul", "speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q", want)
		}
	}
	if err := WriteJSON(&sb, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"montgomery_ns", "reference_ns", "speedup", "bigint_allocs"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("JSON missing %q", want)
		}
	}
	if strings.Contains(sb.String(), "projective") {
		t.Fatal("report still carries a projective column")
	}
}
