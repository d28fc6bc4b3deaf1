//go:build !amd64

package pairing

// hasMulxAdx is false: the assembly multiply exists only on amd64, so every
// context multiplies with fpContext.mulGeneric.
const hasMulxAdx = false

// mulMont8 is never called where hasMulxAdx is false.
func mulMont8(z, x, y, q *fpElement, inv0 uint64) {
	panic("pairing: mulMont8 called without an assembly implementation")
}
