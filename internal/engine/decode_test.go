package engine

import (
	"bytes"
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"maacs/internal/pairing"
)

// TestDecodeCacheMatchesDirect: a miss and a hit both return the element
// Params.UnmarshalG/UnmarshalGT returns for the same bytes, the hit is the
// very value the miss cached, and both re-encode to the input bytes — at
// test and at paper scale.
func TestDecodeCacheMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *pairing.Params
	}{{"test", pairing.Test()}, {"paper", pairing.Default()}} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			g, _, err := p.RandomG(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			k, err := p.RandomScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			gEnc, gtEnc := g.Marshal(), p.GTGenerator().Exp(k).Marshal()
			wantG, err := p.UnmarshalG(gEnc)
			if err != nil {
				t.Fatal(err)
			}
			wantGT, err := p.UnmarshalGT(gtEnc)
			if err != nil {
				t.Fatal(err)
			}

			h0, m0 := DecodeCacheStats()
			var gs []*pairing.G
			var gts []*pairing.GT
			for i := 0; i < 2; i++ {
				gotG, err := DecodeG(p, gEnc)
				if err != nil {
					t.Fatal(err)
				}
				gotGT, err := DecodeGT(p, gtEnc)
				if err != nil {
					t.Fatal(err)
				}
				if !gotG.Equal(wantG) || !bytes.Equal(gotG.Marshal(), gEnc) {
					t.Fatalf("decode %d: G differs from UnmarshalG", i)
				}
				if !gotGT.Equal(wantGT) || !bytes.Equal(gotGT.Marshal(), gtEnc) {
					t.Fatalf("decode %d: G_T differs from UnmarshalGT", i)
				}
				gs, gts = append(gs, gotG), append(gts, gotGT)
			}
			if gs[0] != gs[1] || gts[0] != gts[1] {
				t.Fatal("repeat decode did not return the cached element")
			}
			if h, m := DecodeCacheStats(); h-h0 != 2 || m-m0 != 2 {
				t.Fatalf("hits +%d misses +%d, want +2 each", h-h0, m-m0)
			}
		})
	}
}

// TestDecodeCacheRejectsBadEncoding: a rejected encoding runs the full check
// on every call, fails with the same error each time and never enters the
// cache; a valid encoding decoded afterwards is unaffected.
func TestDecodeCacheRejectsBadEncoding(t *testing.T) {
	p := pairing.Test()
	g, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	good := g.Marshal()
	badFlag := append([]byte{0x05}, good[1:]...)
	badGT := bytes.Repeat([]byte{0xFF}, p.GTByteLen()) // coordinates ≥ q

	lenG, lenGT := decodedG.len(), decodedGT.len()
	h0, m0 := DecodeCacheStats()
	var errs []error
	for i := 0; i < 2; i++ {
		if _, err := DecodeG(p, badFlag); err != nil {
			errs = append(errs, err)
		}
		if _, err := DecodeGT(p, badGT); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) != 4 {
		t.Fatalf("accepted %d of 4 bad decodes", 4-len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, pairing.ErrBadEncoding) {
			t.Fatalf("error %d: %v, want ErrBadEncoding", i, err)
		}
	}
	if errs[0].Error() != errs[2].Error() || errs[1].Error() != errs[3].Error() {
		t.Fatalf("repeat rejections differ: %v / %v, %v / %v", errs[0], errs[2], errs[1], errs[3])
	}
	if h, m := DecodeCacheStats(); h != h0 || m-m0 != 4 {
		t.Fatalf("hits +%d misses +%d, want +0 and +4", h-h0, m-m0)
	}
	if decodedG.len() != lenG || decodedGT.len() != lenGT {
		t.Fatal("a rejected encoding entered the cache")
	}

	got, err := DecodeG(p, good)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Fatal("valid encoding decoded wrong after a rejection")
	}
}

// TestDecodeCacheConcurrent decodes the same fresh bytes from many
// goroutines at once, so they race on the miss path and then on hits; the
// race detector gate in scripts/check.sh runs it.
func TestDecodeCacheConcurrent(t *testing.T) {
	p := pairing.Test()
	g, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gt, _, err := p.RandomGT(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gEnc, gtEnc := g.Marshal(), gt.Marshal()

	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				gotG, err := DecodeG(p, gEnc)
				if err != nil || !gotG.Equal(g) {
					t.Errorf("G decode failed or differs: %v", err)
					return
				}
				gotGT, err := DecodeGT(p, gtEnc)
				if err != nil || !gotGT.Equal(gt) {
					t.Errorf("G_T decode failed or differs: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeCacheBounded decodes more distinct encodings than each cache
// holds and checks that neither grows past its bound.
func TestDecodeCacheBounded(t *testing.T) {
	p := pairing.Test()
	g, gt := p.Generator(), p.GTGenerator()
	accG, accGT := g, gt
	for i := 0; i < decodeCacheCap+32; i++ {
		if _, err := DecodeG(p, accG.Marshal()); err != nil {
			t.Fatal(err)
		}
		accG = accG.Mul(g)
	}
	for i := 0; i < decodeCacheCap/4+32; i++ {
		if _, err := DecodeGT(p, accGT.Marshal()); err != nil {
			t.Fatal(err)
		}
		accGT = accGT.Mul(gt)
	}
	if n := decodedG.len(); n != decodeCacheCap {
		t.Fatalf("G cache holds %d entries, bound is %d", n, decodeCacheCap)
	}
	if n := decodedGT.len(); n != decodeCacheCap/4 {
		t.Fatalf("G_T cache holds %d entries, bound is %d", n, decodeCacheCap/4)
	}
}

func (c *pointCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
