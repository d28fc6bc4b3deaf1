package pairing

import (
	"math/big"
	"math/rand"
	"testing"
)

// fpTestFields returns named fpContexts to exercise both limb widths the
// shipped parameter sets use: 2 limbs (96-bit test field) and 9 limbs
// (513-bit default field).
func fpTestFields(t *testing.T) map[string]*fpContext {
	t.Helper()
	fields := map[string]*fpContext{
		"test":    Test().fpc,
		"default": Default().fpc,
	}
	for name, c := range fields {
		if c == nil {
			t.Fatalf("%s params have no Montgomery context", name)
		}
	}
	return fields
}

// fpEdgeValues are the boundary inputs the fuzz satellite calls out: 0, 1,
// q−1, and values at and above q (which fromBig must normalize).
func fpEdgeValues(q *big.Int) []*big.Int {
	return []*big.Int{
		new(big.Int),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(q, one),
		new(big.Int).Sub(q, two),
	}
}

// TestFpRoundTrip pins the boundary conversions: toBig(fromBig(v)) = v mod q
// for canonical, oversized, and negative inputs, and the Montgomery
// constants decode to what they claim to be.
func TestFpRoundTrip(t *testing.T) {
	for name, c := range fpTestFields(t) {
		t.Run(name, func(t *testing.T) {
			if got := c.toBig(&c.one); got.Cmp(one) != 0 {
				t.Fatalf("toBig(one) = %v, want 1", got)
			}
			vals := fpEdgeValues(c.qBig)
			vals = append(vals,
				new(big.Int).Set(c.qBig),                 // ≥ q: must normalize to 0
				new(big.Int).Add(c.qBig, big.NewInt(41)), // ≥ q: must normalize
				new(big.Int).Neg(big.NewInt(13)),         // negative: must normalize
				new(big.Int).Lsh(c.qBig, 3),              // far above q
			)
			rnd := rand.New(rand.NewSource(7))
			for i := 0; i < 20; i++ {
				vals = append(vals, new(big.Int).Rand(rnd, c.qBig))
			}
			for _, v := range vals {
				var x fpElement
				c.fromBig(&x, v)
				want := new(big.Int).Mod(v, c.qBig)
				if got := c.toBig(&x); got.Cmp(want) != 0 {
					t.Fatalf("round trip of %v: got %v, want %v", v, got, want)
				}
				if (want.Sign() == 0) != c.isZero(&x) {
					t.Fatalf("isZero(%v) wrong", v)
				}
				if (want.Cmp(one) == 0) != c.isOne(&x) {
					t.Fatalf("isOne(%v) wrong", v)
				}
			}
		})
	}
}

// fpCheckOps cross-checks every fpElement operation against math/big for one
// (a, b, e) triple; shared by the differential test and the fuzz target.
func fpCheckOps(t *testing.T, c *fpContext, aBig, bBig *big.Int, e uint64) {
	t.Helper()
	q := c.qBig
	aBig = new(big.Int).Mod(aBig, q)
	bBig = new(big.Int).Mod(bBig, q)
	var a, b, z fpElement
	c.fromBig(&a, aBig)
	c.fromBig(&b, bBig)

	check := func(op string, got *fpElement, want *big.Int) {
		t.Helper()
		if g := c.toBig(got); g.Cmp(want) != 0 {
			t.Fatalf("%s(%v, %v): got %v, want %v", op, aBig, bBig, g, want)
		}
	}

	c.add(&z, &a, &b)
	check("add", &z, new(big.Int).Mod(new(big.Int).Add(aBig, bBig), q))
	c.sub(&z, &a, &b)
	check("sub", &z, new(big.Int).Mod(new(big.Int).Sub(aBig, bBig), q))
	c.neg(&z, &a)
	check("neg", &z, new(big.Int).Mod(new(big.Int).Neg(aBig), q))
	c.dbl(&z, &a)
	check("dbl", &z, new(big.Int).Mod(new(big.Int).Lsh(aBig, 1), q))
	c.mul(&z, &a, &b)
	check("mul", &z, new(big.Int).Mod(new(big.Int).Mul(aBig, bBig), q))
	c.square(&z, &a)
	check("square", &z, new(big.Int).Mod(new(big.Int).Mul(aBig, aBig), q))
	k := new(big.Int).SetUint64(e)
	c.exp(&z, &a, k)
	check("exp", &z, new(big.Int).Exp(aBig, k, q))
	c.inv(&z, &a)
	if aBig.Sign() == 0 {
		if !c.isZero(&z) {
			t.Fatalf("inv(0) ≠ 0")
		}
	} else {
		check("inv", &z, new(big.Int).ModInverse(aBig, q))
	}

	// Aliased forms: z = x op z and x op x must agree with the plain ones.
	z = a
	c.mul(&z, &z, &z)
	check("mul aliased", &z, new(big.Int).Mod(new(big.Int).Mul(aBig, aBig), q))
	z = a
	c.add(&z, &z, &b)
	check("add aliased", &z, new(big.Int).Mod(new(big.Int).Add(aBig, bBig), q))
	z = a
	c.inv(&z, &z)
	if aBig.Sign() != 0 {
		check("inv aliased", &z, new(big.Int).ModInverse(aBig, q))
	}
}

// TestFpArithMatchesBig runs the full operation cross-check on the edge
// inputs and a deterministic sample of random field elements, on both limb
// widths.
func TestFpArithMatchesBig(t *testing.T) {
	for name, c := range fpTestFields(t) {
		t.Run(name, func(t *testing.T) {
			edges := fpEdgeValues(c.qBig)
			for _, a := range edges {
				for _, b := range edges {
					fpCheckOps(t, c, a, b, 3)
				}
			}
			rnd := rand.New(rand.NewSource(42))
			iters := 40
			if name == "default" {
				iters = 12 // 513-bit Fermat inversions are the slow part
			}
			for i := 0; i < iters; i++ {
				a := new(big.Int).Rand(rnd, c.qBig)
				b := new(big.Int).Rand(rnd, c.qBig)
				fpCheckOps(t, c, a, b, rnd.Uint64()%1024)
			}
		})
	}
}

// TestFpExpLargeExponents exercises the ladder with the field-sized
// exponents the kernel actually uses (q−2 for Fermat, the cofactor H).
func TestFpExpLargeExponents(t *testing.T) {
	for name, c := range fpTestFields(t) {
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(5))
			aBig := new(big.Int).Rand(rnd, c.qBig)
			var a, z fpElement
			c.fromBig(&a, aBig)
			for _, k := range []*big.Int{new(big.Int), one, c.qMinus2, new(big.Int).Sub(c.qBig, one)} {
				c.exp(&z, &a, k)
				if got, want := c.toBig(&z), new(big.Int).Exp(aBig, k, c.qBig); got.Cmp(want) != 0 {
					t.Fatalf("exp by %v: got %v, want %v", k, got, want)
				}
			}
		})
	}
}

// TestFpInvAgainstFermat pins the binary extended-GCD inverse to the
// independently-derived Fermat exponentiation x^(q−2) on edge values and
// random elements, including the inv(0) = 0 convention.
func TestFpInvAgainstFermat(t *testing.T) {
	for name, c := range fpTestFields(t) {
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(31))
			cases := fpEdgeValues(c.qBig)
			for i := 0; i < 16; i++ {
				cases = append(cases, new(big.Int).Rand(rnd, c.qBig))
			}
			for _, v := range cases {
				var x, got, want fpElement
				c.fromBig(&x, v)
				c.inv(&got, &x)
				c.invFermat(&want, &x)
				if got != want {
					t.Fatalf("inv(%v): EGCD %v ≠ Fermat %v", v, c.toBig(&got), c.toBig(&want))
				}
				// Aliased form.
				got = x
				c.inv(&got, &got)
				if got != want {
					t.Fatalf("inv(%v) aliased: EGCD ≠ Fermat", v)
				}
			}
		})
	}
}

// TestFpBatchInv checks the batched inversion against per-element
// inversion, including interleaved zeros (left as zero) and the empty and
// singleton slices.
func TestFpBatchInv(t *testing.T) {
	for name, c := range fpTestFields(t) {
		t.Run(name, func(t *testing.T) {
			c.batchInv(nil) // must not panic
			rnd := rand.New(rand.NewSource(9))
			var xs []*fpElement
			var want []*big.Int
			for i := 0; i < 23; i++ {
				v := new(big.Int).Rand(rnd, c.qBig)
				if i%5 == 2 {
					v.SetInt64(0)
				}
				x := new(fpElement)
				c.fromBig(x, v)
				xs = append(xs, x)
				if v.Sign() == 0 {
					want = append(want, new(big.Int))
				} else {
					want = append(want, new(big.Int).ModInverse(v, c.qBig))
				}
			}
			c.batchInv(xs)
			for i := range xs {
				if got := c.toBig(xs[i]); got.Cmp(want[i]) != 0 {
					t.Fatalf("element %d: batch inverse ≠ ModInverse", i)
				}
			}
			// Singleton.
			v := new(big.Int).Rand(rnd, c.qBig)
			var x fpElement
			c.fromBig(&x, v)
			c.batchInv([]*fpElement{&x})
			if got := c.toBig(&x); got.Cmp(new(big.Int).ModInverse(v, c.qBig)) != 0 {
				t.Fatal("singleton batch inverse wrong")
			}
		})
	}
}

// TestNewFpContextRejects pins the constructor contract: fields wider than
// the fixed 9×64-bit width (which newParams rejects up front) and
// degenerate moduli get no Montgomery context.
func TestNewFpContextRejects(t *testing.T) {
	wide := new(big.Int).Lsh(one, 64*fpMaxLimbs)
	wide.Add(wide, big.NewInt(3))
	if newFpContext(wide) != nil {
		t.Fatal("context accepted a modulus wider than fpMaxLimbs")
	}
	if newFpContext(big.NewInt(10)) != nil {
		t.Fatal("context accepted an even modulus")
	}
	if newFpContext(new(big.Int)) != nil {
		t.Fatal("context accepted zero")
	}
	// Exactly at the width limit is fine.
	edge := new(big.Int).Sub(new(big.Int).Lsh(one, 64*fpMaxLimbs), one)
	for !edge.ProbablyPrime(16) {
		edge.Sub(edge, two)
	}
	c := newFpContext(edge)
	if c == nil || c.n != fpMaxLimbs {
		t.Fatal("context rejected a modulus that fits exactly")
	}
	var x fpElement
	c.fromBig(&x, big.NewInt(123456789))
	var z fpElement
	c.mul(&z, &x, &x)
	if got := c.toBig(&z); got.Cmp(new(big.Int).Mod(big.NewInt(123456789*123456789), edge)) != 0 {
		t.Fatal("arithmetic at the width limit wrong")
	}
}

// fp2CheckOps cross-checks the fp2m tower against the big.Int fp2 tower for
// one pair of elements; shared by the differential test and the fuzz target.
func fp2CheckOps(t *testing.T, p *Params, x, y fp2, e uint64) {
	t.Helper()
	c := p.fpc
	var xm, ym, zm fp2m
	c.fp2mFromFp2(&xm, x)
	c.fp2mFromFp2(&ym, y)

	check := func(op string, got *fp2m, want fp2) {
		t.Helper()
		if g := c.fp2mToFp2(got); !g.equal(want) {
			t.Fatalf("%s: montgomery tower disagrees with big.Int tower", op)
		}
	}

	c.fp2mMul(&zm, &xm, &ym)
	check("fp2mMul", &zm, p.fp2Mul(x, y))
	c.fp2mSquare(&zm, &xm)
	check("fp2mSquare", &zm, p.fp2Square(x))
	c.fp2mConj(&zm, &xm)
	check("fp2mConj", &zm, p.fp2Conj(x))
	if !x.isZero() {
		c.fp2mInv(&zm, &xm)
		check("fp2mInv", &zm, p.fp2Inv(x))
	}
	k := new(big.Int).SetUint64(e)
	c.fp2mExp(&zm, &xm, k)
	check("fp2mExp", &zm, p.fp2Exp(x, k))
	// Aliased: z = z·z and z = z².
	zm = xm
	c.fp2mMul(&zm, &zm, &zm)
	check("fp2mMul aliased", &zm, p.fp2Mul(x, x))
	zm = xm
	c.fp2mSquare(&zm, &zm)
	check("fp2mSquare aliased", &zm, p.fp2Square(x))
}

// TestFp2mMatchesFp2 is the F_q² differential: tower operations on
// Montgomery elements agree with the big.Int tower on random and edge
// inputs.
func TestFp2mMatchesFp2(t *testing.T) {
	p := Test()
	q := p.Q
	edges := fpEdgeValues(q)
	for _, a := range edges {
		for _, b := range edges {
			x := fp2{a: new(big.Int).Set(a), b: new(big.Int).Set(b)}
			y := fp2{a: new(big.Int).Set(b), b: new(big.Int).Set(a)}
			fp2CheckOps(t, p, x, y, 17)
		}
	}
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		x := fp2{a: new(big.Int).Rand(rnd, q), b: new(big.Int).Rand(rnd, q)}
		y := fp2{a: new(big.Int).Rand(rnd, q), b: new(big.Int).Rand(rnd, q)}
		fp2CheckOps(t, p, x, y, rnd.Uint64()%4096)
	}
}

// TestFp2mLucasMatchesUnitaryExp pins the fixed-width Lucas ladder against
// the square-and-multiply unitary reference on unitary elements, over the
// exponent gauntlet the final exponentiation and GT.Exp feed it (zero,
// negative, cofactor-sized, around R).
func TestFp2mLucasMatchesUnitaryExp(t *testing.T) {
	p := Test()
	c := p.fpc
	gt := p.GTGenerator()
	bases := []fp2{gt.v}
	for i := 0; i < 4; i++ {
		k := big.NewInt(int64(i)*7919 + 3)
		bases = append(bases, gt.Exp(k).v)
	}
	// A unitary element straight off the Frobenius map, like the final
	// exponentiation builds (not necessarily in the order-R subgroup).
	f := fp2{a: big.NewInt(123456789), b: big.NewInt(987654321)}
	bases = append(bases, p.fp2Mul(p.fp2Conj(f), p.fp2Inv(f)))
	// Real unitary bases: ±1 (the b = 0 special case).
	bases = append(bases,
		fp2{a: big.NewInt(1), b: new(big.Int)},
		fp2{a: new(big.Int).Sub(p.Q, one), b: new(big.Int)},
	)
	exps := []*big.Int{
		new(big.Int), one, big.NewInt(2), big.NewInt(3), big.NewInt(-1), big.NewInt(-7919),
		new(big.Int).Set(p.H), new(big.Int).Neg(p.H),
		new(big.Int).Sub(p.R, one), new(big.Int).Set(p.R), new(big.Int).Add(p.R, one),
	}
	for bi, x := range bases {
		var xm, zm fp2m
		c.fp2mFromFp2(&xm, x)
		for ei, k := range exps {
			c.fp2mExpUnitaryLucas(&zm, &xm, k)
			want := p.fp2ExpUnitary(x, k)
			if got := c.fp2mToFp2(&zm); !got.equal(want) {
				t.Fatalf("base %d exp %d (%v): fixed-width Lucas ≠ square-and-multiply", bi, ei, k)
			}
		}
	}
}

// FuzzFpMontgomery cross-checks the fixed-width base-field kernel against
// math/big on fuzzer-chosen inputs. Byte slices of any length are reduced
// mod q, so the fuzzer reaches 0, 1, q−1, and ≥ q states organically on top
// of the seeded edges.
func FuzzFpMontgomery(f *testing.F) {
	p := Test()
	c := p.fpc
	qm1 := new(big.Int).Sub(c.qBig, one).Bytes()
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Add([]byte{1}, []byte{1}, uint64(1))
	f.Add(qm1, qm1, uint64(2))
	f.Add(c.qBig.Bytes(), []byte{7}, uint64(65537))
	f.Add(new(big.Int).Lsh(c.qBig, 1).Bytes(), qm1, uint64(3))
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte, e uint64) {
		if len(aRaw) > 64 || len(bRaw) > 64 {
			return // keep math/big oracle time bounded
		}
		a := new(big.Int).SetBytes(aRaw)
		b := new(big.Int).SetBytes(bRaw)
		fpCheckOps(t, c, a, b, e%(1<<16))
	})
}

// FuzzFp2Montgomery is the F_q² variant: tower operations plus the unitary
// Lucas ladder (on the unitarized input) against the big.Int tower and its
// square-and-multiply unitary exponentiation.
func FuzzFp2Montgomery(f *testing.F) {
	p := Test()
	c := p.fpc
	qm1 := new(big.Int).Sub(p.Q, one).Bytes()
	f.Add([]byte{}, []byte{}, []byte{1}, []byte{1}, uint64(0))
	f.Add([]byte{1}, []byte{2}, []byte{3}, []byte{4}, uint64(5))
	f.Add(qm1, qm1, qm1, []byte{}, uint64(1<<15))
	f.Fuzz(func(t *testing.T, xa, xb, ya, yb []byte, e uint64) {
		if len(xa) > 64 || len(xb) > 64 || len(ya) > 64 || len(yb) > 64 {
			return
		}
		mk := func(raw []byte) *big.Int {
			return new(big.Int).Mod(new(big.Int).SetBytes(raw), p.Q)
		}
		x := fp2{a: mk(xa), b: mk(xb)}
		y := fp2{a: mk(ya), b: mk(yb)}
		fp2CheckOps(t, p, x, y, e%(1<<16))
		if x.isZero() {
			return
		}
		// Unitarize x (x̄/x has norm 1) and pin the Lucas ladder against
		// square-and-multiply on it, with a signed exponent derived from e.
		u := p.fp2Mul(p.fp2Conj(x), p.fp2Inv(x))
		k := new(big.Int).SetUint64(e)
		if e%2 == 1 {
			k.Neg(k)
		}
		var um, zm fp2m
		c.fp2mFromFp2(&um, u)
		c.fp2mExpUnitaryLucas(&zm, &um, k)
		if got, want := c.fp2mToFp2(&zm), p.fp2ExpUnitary(u, k); !got.equal(want) {
			t.Fatal("fixed-width Lucas ladder disagrees with square-and-multiply")
		}
	})
}

// FuzzFpInvLehmer pins the Lehmer/divstep inversion against both the
// Fermat power ladder and math/big's ModInverse, at test scale (2 active
// limbs) and paper scale (9 active limbs). It also asserts the
// verified-fallback counter stays untouched: the Lehmer path must succeed
// on its own for every input, including 0, 1, q−1, and sparse-limb values.
func FuzzFpInvLehmer(f *testing.F) {
	pt := Test()
	pd := Default()
	f.Add([]byte{})                            // 0
	f.Add([]byte{1})                           // 1
	f.Add(new(big.Int).Sub(pd.Q, one).Bytes()) // q−1
	f.Add(new(big.Int).Sub(pt.Q, one).Bytes()) // small-field q−1
	f.Add([]byte{2})                           // smallest even
	f.Add(new(big.Int).Lsh(one, 62).Bytes())   // single mid bit
	f.Add(new(big.Int).Lsh(one, 511).Bytes())  // sparse top limb
	f.Add(pd.Q.Bytes())                        // ≡ 0 after reduction
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 80 {
			return // keep the math/big oracle time bounded
		}
		x := new(big.Int).SetBytes(raw)
		for _, p := range []*Params{pt, pd} {
			c := p.fpc
			before := fpInvFallbacks.Load()
			xr := new(big.Int).Mod(x, c.qBig)
			var xm, zm fpElement
			c.fromBig(&xm, xr)
			c.inv(&zm, &xm)
			got := c.toBig(&zm)
			if xr.Sign() == 0 {
				if got.Sign() != 0 {
					t.Fatalf("inv(0) = %v, want 0", got)
				}
				continue
			}
			want := new(big.Int).ModInverse(xr, c.qBig)
			if got.Cmp(want) != 0 {
				t.Fatalf("inv mismatch mod %v: got %v want %v", c.qBig, got, want)
			}
			var fm fpElement
			c.invFermat(&fm, &xm)
			if fm != zm {
				t.Fatal("Lehmer and Fermat inversions disagree")
			}
			// Aliased form must match too.
			alias := xm
			c.inv(&alias, &alias)
			if alias != zm {
				t.Fatal("aliased inv(x, x) disagrees with inv(z, x)")
			}
			if after := fpInvFallbacks.Load(); after != before {
				t.Fatalf("Lehmer inversion fell back to Fermat (%d → %d)", before, after)
			}
		}
	})
}
