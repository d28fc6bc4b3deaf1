package pairing

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// TestPairMatchesReference pins the Montgomery kernel (projective NAF Miller
// loop + Lucas final exponentiation) bit-identical to the retained affine
// reference on random subgroup points.
func TestPairMatchesReference(t *testing.T) {
	p := Test()
	g := p.Generator()
	f := func(a64, b64 uint64) bool {
		a := new(big.Int).SetUint64(a64)
		b := new(big.Int).SetUint64(b64)
		ga, gb := g.Exp(a), g.Exp(b)
		opt := p.MustPair(ga, gb)
		ref, err := p.PairReference(ga, gb)
		if err != nil {
			return false
		}
		return opt.Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPairKernelDispatch checks that pairing, prepared pairing, PairMul,
// MultiExp and G arithmetic give the same results as the reference functions on the
// same Params, byte for byte.
func TestPairKernelDispatch(t *testing.T) {
	p := Test()
	a, b := big.NewInt(98765), big.NewInt(43210)
	ga, gb := p.Generator().Exp(a), p.Generator().Exp(b)
	e := p.MustPair(ga, gb)
	ref, err := p.PairReference(p.Generator().ExpReference(a), p.Generator().ExpReference(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Marshal(), ref.Marshal()) {
		t.Fatal("Pair disagrees with PairReference")
	}
	pp, err := p.Prepare(ga).Pair(gb)
	if err != nil {
		t.Fatalf("prepared pair: %v", err)
	}
	if !bytes.Equal(pp.Marshal(), ref.Marshal()) {
		t.Fatal("prepared pair disagrees with PairReference")
	}
	prod, err := p.Prepare(ga).PairMul(gb, gb, ga)
	if err != nil {
		t.Fatalf("PairMul: %v", err)
	}
	if !bytes.Equal(prod.Marshal(), ref.Mul(ref).Marshal()) {
		t.Fatal("PairMul ≠ PairReference(a,b)²")
	}
	g := p.Generator()
	multi, err := p.MultiExp([]*G{g, g}, []*big.Int{a, new(big.Int).Neg(b)})
	if err != nil {
		t.Fatalf("MultiExp: %v", err)
	}
	if !bytes.Equal(multi.Marshal(), g.ExpReference(new(big.Int).Sub(a, b)).Marshal()) {
		t.Fatal("MultiExp disagrees with the reference ladder")
	}
	gFast := g.Exp(a).Mul(g.Exp(b).Inv())
	gRef := g.ExpReference(a).Mul(g.ExpReference(b).Inv())
	if !bytes.Equal(gFast.Marshal(), gRef.Marshal()) {
		t.Fatal("G arithmetic disagrees with the reference ladder")
	}
}

// TestPreparedProjMatchesAffinePrepare pins the batch-inverted projective
// preparation and its walk against the affine reference pairing on the
// same Params.
func TestPreparedProjMatchesAffinePrepare(t *testing.T) {
	p := Test()
	g := p.Generator()
	for i := 0; i < 10; i++ {
		a, _ := p.RandomScalar(rand.Reader)
		b, _ := p.RandomScalar(rand.Reader)
		ga, gb := g.Exp(a), g.Exp(b)
		got, err := p.Prepare(ga).Pair(gb)
		if err != nil {
			t.Fatalf("prepared pair: %v", err)
		}
		want, err := p.PairReference(ga, gb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("iteration %d: prepared pair disagrees with PairReference", i)
		}
	}
}

// TestFp2ExpNegativeExponents is the regression for the folded sign
// handling: one pass, base inverted (or conjugated) up front.
func TestFp2ExpNegativeExponents(t *testing.T) {
	p := Test()
	gt := p.GTGenerator()
	x := gt.Exp(big.NewInt(31337)).v
	for _, k := range []*big.Int{big.NewInt(-1), big.NewInt(-2), big.NewInt(-31337), new(big.Int).Neg(p.R)} {
		pos := new(big.Int).Neg(k)
		wantGeneric := p.fp2Inv(p.fp2Exp(x, pos))
		if got := p.fp2Exp(x, k); !got.equal(wantGeneric) {
			t.Fatalf("fp2Exp(x, %v) ≠ fp2Exp(x, %v)⁻¹", k, pos)
		}
		wantUnitary := p.fp2Conj(p.fp2ExpUnitary(x, pos))
		if got := p.fp2ExpUnitary(x, k); !got.equal(wantUnitary) {
			t.Fatalf("fp2ExpUnitary(x, %v) ≠ conj(fp2ExpUnitary(x, %v))", k, pos)
		}
		var xm, zm fp2m
		p.fpc.fp2mFromFp2(&xm, x)
		p.fpc.fp2mExpUnitaryLucas(&zm, &xm, k)
		if got := p.fpc.fp2mToFp2(&zm); !got.equal(wantUnitary) {
			t.Fatalf("fp2mExpUnitaryLucas(x, %v) ≠ conj(...)", k)
		}
	}
}

// TestScalarNormalization checks that every exponentiation entry point
// reduces its scalar before walking a ladder: zero, negative, and oversized
// exponents land exactly on the reduced residue's result.
func TestScalarNormalization(t *testing.T) {
	p := Test()
	g := p.Generator()
	gt := p.GTGenerator()
	table := p.PrepareExp(g)
	small := big.NewInt(12345)
	cases := []struct {
		name string
		k    *big.Int
		want *big.Int // equivalent scalar in [0, R)
	}{
		{"zero", new(big.Int), new(big.Int)},
		{"negative", new(big.Int).Neg(small), new(big.Int).Sub(p.R, small)},
		{"exactly R", new(big.Int).Set(p.R), new(big.Int)},
		{"R plus k", new(big.Int).Add(p.R, small), small},
		{"huge", new(big.Int).Mul(p.R, p.H), new(big.Int).Mod(new(big.Int).Mul(p.R, p.H), p.R)},
		{"negative huge", new(big.Int).Neg(new(big.Int).Mul(p.H, big.NewInt(7))), new(big.Int).Mod(new(big.Int).Neg(new(big.Int).Mul(p.H, big.NewInt(7))), p.R)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := g.Exp(tc.want)
			if got := g.Exp(tc.k); !got.Equal(want) {
				t.Errorf("G.Exp(%v) ≠ G.Exp(%v)", tc.k, tc.want)
			}
			if got := g.ExpReference(tc.k); !got.Equal(want) {
				t.Errorf("G.ExpReference(%v) ≠ G.Exp(%v)", tc.k, tc.want)
			}
			if got := table.Exp(tc.k); !got.Equal(want) {
				t.Errorf("ExpTable.Exp(%v) ≠ G.Exp(%v)", tc.k, tc.want)
			}
			if got := p.FixedBaseExp(tc.k); !got.Equal(p.Generator().Exp(tc.want)) {
				t.Errorf("FixedBaseExp(%v) ≠ g^%v", tc.k, tc.want)
			}
			wantT := gt.Exp(tc.want)
			if got := gt.Exp(tc.k); !got.Equal(wantT) {
				t.Errorf("GT.Exp(%v) ≠ GT.Exp(%v)", tc.k, tc.want)
			}
			if got := gt.ExpReference(tc.k); !got.Equal(wantT) {
				t.Errorf("GT.ExpReference(%v) ≠ GT.Exp(%v)", tc.k, tc.want)
			}
		})
	}
}

// TestNAFDigits checks the recoding invariants: the digits reconstruct the
// scalar, no two adjacent digits are nonzero, and the leading digit is 1.
func TestNAFDigits(t *testing.T) {
	f := func(k64 uint64) bool {
		if k64 == 0 {
			return nafDigits(new(big.Int)) == nil
		}
		k := new(big.Int).SetUint64(k64)
		digits := nafDigits(k)
		if len(digits) == 0 || digits[0] != 1 {
			return false
		}
		acc := new(big.Int)
		prevNonzero := false
		for _, d := range digits {
			acc.Lsh(acc, 1)
			acc.Add(acc, big.NewInt(int64(d)))
			if d != 0 && prevNonzero {
				return false // adjacency violation
			}
			prevNonzero = d != 0
		}
		return acc.Cmp(k) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if nafDigits(big.NewInt(-5)) != nil {
		t.Error("nafDigits accepted a negative scalar")
	}
}

// TestKernelSharedStateConcurrency hammers one shared *Params and one
// shared *PreparedG (through Pair and PairMul) from many goroutines. All
// temporaries live on the callers' stacks and the lazily built generator
// comb sits behind sync.Once, so shared state stays read-only; the -race
// runs in scripts/check.sh turn any aliasing bug into a hard failure, and
// the determinism check catches silent corruption even without the race
// detector.
func TestKernelSharedStateConcurrency(t *testing.T) {
	p := Test()
	g := p.Generator()
	a, _ := p.RandomScalar(rand.Reader)
	ga := g.Exp(a)
	pre := p.Prepare(ga)
	table := p.PrepareExp(ga)

	const workers = 8
	const iters = 12
	scalars := make([]*big.Int, workers)
	wantPair := make([]*GT, workers)
	wantMul := make([]*GT, workers)
	wantExp := make([]*G, workers)
	for w := range scalars {
		k, _ := p.RandomScalar(rand.Reader)
		scalars[w] = k
		wantPair[w] = p.MustPair(ga, g.Exp(k))
		wantMul[w] = wantPair[w].Mul(p.MustPair(g, g.Exp(k)))
		wantExp[w] = ga.Exp(k)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := scalars[w]
			for i := 0; i < iters; i++ {
				gk := g.Exp(k)
				e1 := p.MustPair(ga, gk)
				e2, err := pre.Pair(gk)
				if err != nil {
					errs <- err
					return
				}
				if !e1.Equal(wantPair[w]) || !e2.Equal(wantPair[w]) {
					errs <- errMismatch
					return
				}
				e3, err := pre.PairMul(gk, g, gk)
				if err != nil {
					errs <- err
					return
				}
				if !e3.Equal(wantMul[w]) {
					errs <- errMismatch
					return
				}
				if !table.Exp(k).Equal(wantExp[w]) || !p.FixedBaseExp(k).Mul(p.OneG()).Equal(p.Generator().Exp(k)) {
					errs <- errMismatch
					return
				}
				if !wantPair[w].Exp(k).Equal(wantPair[w].ExpReference(k)) {
					errs <- errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string {
	return "concurrent kernel use produced a result differing from the serial baseline"
}
