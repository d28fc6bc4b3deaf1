// Command maacs-paramgen generates fresh Type-A pairing parameters and
// prints them as decimal constants suitable for internal/pairing/default.go.
//
// Usage:
//
//	maacs-paramgen              # 160-bit order / 512-bit field (paper scale)
//	maacs-paramgen -r 48 -q 96  # custom sizes (e.g. fast test parameters)
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"os"

	"maacs/internal/pairing"
)

func main() {
	rBits := flag.Int("r", 160, "bit length of the prime group order")
	qBits := flag.Int("q", 512, "approximate bit length of the base field prime (at most 576)")
	flag.Parse()
	if err := run(*rBits, *qBits, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maacs-paramgen:", err)
		os.Exit(1)
	}
}

func run(rBits, qBits int, out io.Writer) error {
	p, err := pairing.GenerateParams(rBits, qBits, rand.Reader)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	q, r, h, gx, gy := p.Export()
	fmt.Fprintf(out, "// r: %d bits, q: %d bits\n", p.R.BitLen(), p.Q.BitLen())
	fmt.Fprintf(out, "Q  = %q\n", q)
	fmt.Fprintf(out, "R  = %q\n", r)
	fmt.Fprintf(out, "H  = %q\n", h)
	fmt.Fprintf(out, "GX = %q\n", gx)
	fmt.Fprintf(out, "GY = %q\n", gy)
	return nil
}
