package bench

import (
	"crypto/rand"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func testCfg(nA, nk int) Config {
	return Config{
		Params:            pairing.Test(),
		Authorities:       nA,
		AttrsPerAuthority: nk,
		Rnd:               rand.Reader,
	}
}

func TestWorkloadRoundTrips(t *testing.T) {
	cfg := testCfg(3, 2)
	ours, err := SetupOurs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct, _, err := ours.Encrypt()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ours.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := ours.DecryptAggregated(ct); err != nil {
		t.Fatal(err)
	}
	lw, err := SetupLewko(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lct, _, err := lw.Encrypt()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lw.Decrypt(lct); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatEncryptionsBuildNoTables guards the linear growth of Figs. 3(a)
// and 4(a). At 14 authorities × 5 attributes each scheme encrypts under 70
// attribute bases, 140 together, more than a process-wide 128-entry table
// cache could hold. Each base keeps its own comb, so once both schemes have
// encrypted, a second encryption by ours and then by Lewko builds none.
func TestRepeatEncryptionsBuildNoTables(t *testing.T) {
	cfg := testCfg(14, 5)
	ours, err := SetupOurs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := SetupLewko(cfg)
	if err != nil {
		t.Fatal(err)
	}
	encryptBoth := func() {
		t.Helper()
		if _, _, err := ours.Encrypt(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := lw.Encrypt(); err != nil {
			t.Fatal(err)
		}
	}
	encryptBoth()
	before := pairing.SnapshotOpCounts()
	encryptBoth()
	d := pairing.SnapshotOpCounts().Delta(before)
	if d.TableBuilds != 0 {
		t.Fatalf("second encryptions built %d combs, want 0", d.TableBuilds)
	}
	// Per row: ours 2 comb uses, Lewko 3 (C2 and both bases of C3); ours adds
	// one for C'.
	if l := uint64(cfg.TotalAttrs()); d.TableReuses != 5*l+1 {
		t.Fatalf("second encryptions used %d combs, want %d", d.TableReuses, 5*l+1)
	}
}

func TestPolicyForShape(t *testing.T) {
	cfg := testCfg(2, 3)
	policy := policyFor(cfg)
	if got := strings.Count(policy, " AND "); got != cfg.TotalAttrs()-1 {
		t.Fatalf("policy has %d ANDs, want %d", got, cfg.TotalAttrs()-1)
	}
	if !strings.Contains(policy, "aa00:attr00") || !strings.Contains(policy, "aa01:attr02") {
		t.Fatalf("policy missing expected attrs: %s", policy)
	}
}

func TestSweepsProduceSeries(t *testing.T) {
	spec := SweepSpec{Params: pairing.Test(), Rnd: rand.Reader, Xs: []int{2, 3}, Fixed: 2, Trials: 1}
	for _, op := range []operation{OpEncrypt, OpDecrypt} {
		s3, err := SweepAuthorities(spec, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(s3.Points) != 2 || s3.Points[0].X != 2 {
			t.Fatalf("bad series: %+v", s3)
		}
		s4, err := SweepAttrs(spec, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(s4.Points) != 2 {
			t.Fatalf("bad series: %+v", s4)
		}
		var sb strings.Builder
		s3.Render(&sb)
		if !strings.Contains(sb.String(), "authorities") {
			t.Fatal("render missing axis label")
		}
		if !strings.Contains(s4.CSV(), "ours_ms") {
			t.Fatal("CSV missing header")
		}
	}
}

func TestMeasureSizesShapes(t *testing.T) {
	r, err := MeasureSizes(testCfg(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	ok, verdicts := r.CheckSizeShapes()
	if !ok {
		t.Fatalf("paper size claims violated:\n%s", strings.Join(verdicts, "\n"))
	}
	p := pairing.Test()
	// Spot-check the measured numbers against the closed forms.
	if want := p.GTByteLen() + (r.Cfg.TotalAttrs()+1)*p.GByteLen(); r.OursCiphertext != want {
		t.Fatalf("ours ciphertext %d, want %d", r.OursCiphertext, want)
	}
	if want := (r.Cfg.TotalAttrs()+1)*p.GTByteLen() + 2*r.Cfg.TotalAttrs()*p.GByteLen(); r.LewkoCiphertext != want {
		t.Fatalf("lewko ciphertext %d, want %d", r.LewkoCiphertext, want)
	}
	out := r.RenderAll()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "Lewko–Waters"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestMeasureRevocationShapes(t *testing.T) {
	res, err := MeasureRevocation(testCfg(2, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Partial re-encryption: n_k rows per ciphertext × 3 ciphertexts.
	if res.OursRowsTouched != 2*3 {
		t.Fatalf("touched %d rows, want 6", res.OursRowsTouched)
	}
	if res.HurRowsTouched != 3 { // one attribute revoked × 3 ciphertexts
		t.Fatalf("hur touched %d rows, want 3", res.HurRowsTouched)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "proxy ReEncrypt") {
		t.Fatal("render missing stages")
	}
}

func TestCheckShapeLogic(t *testing.T) {
	s := &Series{Name: "x", Points: []Point{{X: 1, Ours: 10, Lewko: 20}, {X: 2, Ours: 10, Lewko: 20}}}
	if ok, _ := s.CheckShape(OpEncrypt); !ok {
		t.Fatal("faster-everywhere series must pass encryption shape")
	}
	if ok, _ := s.CheckShape(OpDecrypt); ok {
		t.Fatal("faster-everywhere series must fail decryption shape")
	}
}
