package pairing

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func TestGMarshalRoundTrip(t *testing.T) {
	p := Test()
	f := func(x gValue) bool {
		g := x.toG(p)
		data := g.Marshal()
		if len(data) != p.GByteLen() {
			return false
		}
		g2, err := p.UnmarshalG(data)
		if err != nil {
			return false
		}
		return g2.Equal(g)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGMarshalInfinity(t *testing.T) {
	p := Test()
	data := p.OneG().Marshal()
	g, err := p.UnmarshalG(data)
	if err != nil {
		t.Fatalf("UnmarshalG(∞): %v", err)
	}
	if !g.IsOne() {
		t.Fatal("round-tripped infinity is not identity")
	}
}

func TestGTMarshalRoundTrip(t *testing.T) {
	p := Test()
	e := p.GTGenerator()
	f := func(k32 uint32) bool {
		v := e.Exp(new(big.Int).SetUint64(uint64(k32)))
		data := v.Marshal()
		if len(data) != p.GTByteLen() {
			return false
		}
		v2, err := p.UnmarshalGT(data)
		if err != nil {
			return false
		}
		return v2.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalGRejectsGarbage(t *testing.T) {
	p := Test()
	cases := map[string][]byte{
		"short":       {0x02, 0x01},
		"bad flag":    append([]byte{0x07}, make([]byte, p.qByteLen())...),
		"nonzero inf": append([]byte{0x00}, bytes.Repeat([]byte{0xFF}, p.qByteLen())...),
		"x too large": append([]byte{0x02}, bytes.Repeat([]byte{0xFF}, p.qByteLen())...),
	}
	for name, data := range cases {
		if _, err := p.UnmarshalG(data); err == nil {
			t.Errorf("%s: UnmarshalG accepted malformed input", name)
		}
	}
}

func TestUnmarshalGRejectsWrongSubgroup(t *testing.T) {
	p := Test()
	// Find a curve point outside the order-r subgroup: hash to a raw point
	// without cofactor clearing.
	x := new(big.Int)
	var pt point
	for i := int64(1); ; i++ {
		x.SetInt64(i)
		y, ok := p.sqrt(p.rhs(x))
		if !ok {
			continue
		}
		cand := point{x: new(big.Int).Set(x), y: y}
		if !p.hasOrderDividingR(cand) {
			pt = cand
			break
		}
	}
	g := &G{p: p, pt: pt}
	if _, err := p.UnmarshalG(g.Marshal()); err == nil {
		t.Fatal("UnmarshalG accepted a point outside the order-r subgroup")
	}
}

func TestUnmarshalGTRejectsGarbage(t *testing.T) {
	p := Test()
	if _, err := p.UnmarshalGT([]byte{1, 2, 3}); err == nil {
		t.Error("UnmarshalGT accepted short input")
	}
	zero := make([]byte, p.GTByteLen())
	if _, err := p.UnmarshalGT(zero); err == nil {
		t.Error("UnmarshalGT accepted the zero element")
	}
	big := bytes.Repeat([]byte{0xFF}, p.GTByteLen())
	if _, err := p.UnmarshalGT(big); err == nil {
		t.Error("UnmarshalGT accepted out-of-range coordinates")
	}
	// An Fq² element of the wrong multiplicative order: 2 + 0i is in Fq* but
	// almost surely not in the order-r subgroup.
	two := make([]byte, p.GTByteLen())
	two[p.qByteLen()-1] = 2
	if _, err := p.UnmarshalGT(two); err == nil {
		t.Error("UnmarshalGT accepted an element outside the order-r subgroup")
	}
}

func TestScalarMarshalRoundTrip(t *testing.T) {
	p := Test()
	f := func(k64 uint64) bool {
		k := new(big.Int).SetUint64(k64)
		k.Mod(k, p.R)
		data := p.MarshalScalar(k)
		k2, err := p.UnmarshalScalar(data)
		if err != nil {
			return false
		}
		return k2.Cmp(k) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
	if _, err := p.UnmarshalScalar([]byte{1}); err == nil {
		t.Error("UnmarshalScalar accepted short input")
	}
}

func TestByteLens(t *testing.T) {
	p := Default()
	if got := p.GByteLen(); got != 65 {
		t.Errorf("default |G| = %d bytes, want 65 (512-bit q, compressed)", got)
	}
	if got := p.GTByteLen(); got != 128 {
		t.Errorf("default |GT| = %d bytes, want 128 (PBC's a.param G_T size)", got)
	}
	if got := p.ScalarByteLen(); got != 20 {
		t.Errorf("default |p| = %d bytes, want 20 (160-bit r)", got)
	}
}
