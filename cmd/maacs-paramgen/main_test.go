package main

import (
	"errors"
	"fmt"
	"math/big"
	"regexp"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestParamgenProducesValidConstants(t *testing.T) {
	for _, tc := range []struct{ r, q int }{{40, 80}, {160, 512}} {
		var sb strings.Builder
		if err := run(tc.r, tc.q, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		header := fmt.Sprintf("// r: %d bits, q: %d bits\n", tc.r, tc.q)
		for _, want := range []string{header, "Q  =", "R  =", "H  =", "GX =", "GY ="} {
			if !strings.Contains(out, want) {
				t.Fatalf("run(%d, %d) output missing %q:\n%s", tc.r, tc.q, want, out)
			}
		}
		// r is a Solinas prime: at most three nonzero NAF digits, as in
		// PBC's a.param.
		m := regexp.MustCompile(`R  = "(\d+)"`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no R constant in:\n%s", out)
		}
		r, _ := new(big.Int).SetString(m[1], 10)
		if w := nafWeight(r); w > 3 {
			t.Errorf("run(%d, %d): r = %v has NAF weight %d, want ≤ 3", tc.r, tc.q, r, w)
		}
	}
}

// nafWeight counts the nonzero digits of k's non-adjacent form.
func nafWeight(k *big.Int) int {
	n := new(big.Int).Set(k)
	w := 0
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			w++
			if n.Bit(1) == 1 {
				n.Add(n, big.NewInt(1))
			} else {
				n.Sub(n, big.NewInt(1))
			}
		}
		n.Rsh(n, 1)
	}
	return w
}

func TestParamgenRejectsBadSizes(t *testing.T) {
	var sb strings.Builder
	if err := run(8, 16, &sb); err == nil {
		t.Fatal("tiny sizes accepted")
	}
	// The base field must fit the 512-bit (8×64) Montgomery width.
	for _, tc := range []struct{ r, q int }{{32, 640}, {160, 576}} {
		if err := run(tc.r, tc.q, &sb); !errors.Is(err, pairing.ErrInvalidParams) {
			t.Fatalf("run(%d, %d) err = %v, want ErrInvalidParams", tc.r, tc.q, err)
		}
	}
}
