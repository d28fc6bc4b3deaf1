package pairing

import (
	"fmt"
	"math/big"
	"sync"
)

// NewParams reconstructs a Params value from its defining integers (all in
// decimal): base field prime q, group order r, cofactor h, and the affine
// coordinates of the generator. It validates everything, so it is safe to
// feed untrusted parameter strings to it.
func NewParams(qStr, rStr, hStr, gxStr, gyStr string) (*Params, error) {
	q, ok1 := new(big.Int).SetString(qStr, 10)
	r, ok2 := new(big.Int).SetString(rStr, 10)
	h, ok3 := new(big.Int).SetString(hStr, 10)
	gx, ok4 := new(big.Int).SetString(gxStr, 10)
	gy, ok5 := new(big.Int).SetString(gyStr, 10)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return nil, fmt.Errorf("%w: unparseable integer", ErrInvalidParams)
	}
	p, err := newParams(q, r, h)
	if err != nil {
		return nil, err
	}
	p.gen = point{x: gx, y: gy}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Decimal constants for the default (paper-scale) parameters: the Type A
// instance PBC ships as param/a.param, which the paper's evaluation ran on.
// q has 512 bits and r = 2^159 + 2^107 + 1 is a Solinas prime. a.param names
// no generator; GX, GY were picked once with pickGenerator.
const (
	defaultQ  = "8780710799663312522437781984754049815806883199414208211028653399266475630880222957078625179422662221423155858769582317459277713367317481324925129998224791"
	defaultR  = "730750818665451621361119245571504901405976559617"
	defaultH  = "12016012264891146079388821366740534204802954401251311822919615131047207289359704531102844802183906537786776"
	defaultGX = "2267465082853985602136353615359360785701423275258882087754825611628021321113217438065518944567316777545888598616335643397080075149385950731939501374191571"
	defaultGY = "6946524081407340717457823103013099218931715785525895829082802774907457842843900484860378822690381903479046075405039195624302468251360499615015616460909551"
)

// Decimal constants for small test parameters (48-bit order, 96-bit field):
// cryptographically worthless but two orders of magnitude faster, used by
// unit and property tests that need many iterations. Generated with
// cmd/maacs-paramgen -test.
const (
	testQ  = "55408601198092020700205721511"
	testR  = "214482268068571"
	testH  = "258336512836472"
	testGX = "50932307366807450567244062659"
	testGY = "23977693753224805952382436830"
)

var (
	defaultOnce   sync.Once
	defaultParams *Params
	testOnce      sync.Once
	testParams    *Params
)

// Default returns the shared paper-scale parameters (160-bit order, 512-bit
// base field). The first call validates them; subsequent calls are cheap.
func Default() *Params {
	defaultOnce.Do(func() {
		p, err := NewParams(defaultQ, defaultR, defaultH, defaultGX, defaultGY)
		if err != nil {
			panic(fmt.Sprintf("pairing: built-in default parameters invalid: %v", err))
		}
		defaultParams = p
	})
	return defaultParams
}

// Test returns the shared small parameters for fast tests. Never use these
// outside tests.
func Test() *Params {
	testOnce.Do(func() {
		p, err := NewParams(testQ, testR, testH, testGX, testGY)
		if err != nil {
			panic(fmt.Sprintf("pairing: built-in test parameters invalid: %v", err))
		}
		testParams = p
	})
	return testParams
}
