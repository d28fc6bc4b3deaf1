package main

import (
	"errors"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestParamgenProducesValidConstants(t *testing.T) {
	var sb strings.Builder
	if err := run(40, 80, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"r: 40 bits", "Q  =", "R  =", "H  =", "GX =", "GY ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestParamgenRejectsBadSizes(t *testing.T) {
	var sb strings.Builder
	if err := run(8, 16, &sb); err == nil {
		t.Fatal("tiny sizes accepted")
	}
	// The base field must fit the 576-bit Montgomery width.
	if err := run(32, 640, &sb); !errors.Is(err, pairing.ErrInvalidParams) {
		t.Fatalf("run(32, 640) err = %v, want ErrInvalidParams", err)
	}
}
