package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestDecryptionCostScalesWithRowsUsed pins an efficiency property the
// paper's figures imply but never isolate: Eq. 1's pairing count is
// 2·|rows used| + n_A, so decrypting a wide OR with a single attribute must
// be much cheaper than decrypting the AND over all of them — even though
// the ciphertext is the same size. It times DecryptEq1, the equation as
// printed; Decrypt runs two Miller loops whatever the rows used, so its
// cost grows only by the rows' share of two multi-exponentiations.
func TestDecryptionCostScalesWithRowsUsed(t *testing.T) {
	const width = 12
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("x%02d", i)
	}
	f := newFixture(t, map[string][]string{"a": names})

	qualified := make([]string, width)
	for i, n := range names {
		qualified[i] = "a:" + n
	}
	orPolicy := strings.Join(qualified, " OR ")
	andPolicy := strings.Join(qualified, " AND ")

	oneAttr := f.enrol("one", map[string][]string{"a": {names[0]}})
	allAttrs := f.enrol("all", map[string][]string{"a": names})

	mOr, ctOr := f.encrypt(orPolicy)
	mAnd, ctAnd := f.encrypt(andPolicy)

	timeDecrypt := func(ct *Ciphertext, u *fixtureUser) time.Duration {
		t.Helper()
		start := time.Now()
		got, err := DecryptEq1(f.sys, ct, u.pk, u.sks)
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(mOr) && !got.Equal(mAnd) {
			t.Fatal("wrong plaintext")
		}
		return d
	}

	// Average a few runs to damp scheduler noise.
	var orTotal, andTotal time.Duration
	const trials = 3
	for i := 0; i < trials; i++ {
		orTotal += timeDecrypt(ctOr, oneAttr)    // 1 row used
		andTotal += timeDecrypt(ctAnd, allAttrs) // 12 rows used
	}
	// 2·1+1 = 3 pairings vs 2·12+1 = 25: expect ≥ 3× gap; assert a lenient 2×.
	if andTotal < 2*orTotal {
		t.Fatalf("cost not scaling with rows used: OR(1 row)=%v AND(%d rows)=%v",
			orTotal/trials, width, andTotal/trials)
	}
}
