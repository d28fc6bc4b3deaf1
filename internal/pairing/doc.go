// Package pairing implements a symmetric (Type-A) bilinear pairing over a
// supersingular elliptic curve, matching the parameter family used by the
// PBC library's "a" parameters that the paper's evaluation ran on:
//
//	E: y² = x³ + x  over F_q,  q ≡ 3 (mod 4),  #E(F_q) = q + 1 = h·r
//
// with r a prime of configurable length (160 bits by default) and q a prime
// of configurable length (512 bits by default). The embedding degree is 2,
// so the target group G_T lives in F_q² = F_q[i]/(i²+1).
//
// The pairing is the reduced Tate pairing made symmetric with the distortion
// map φ(x, y) = (−x, i·y):
//
//	e(P, Q) = f_{r,P}(φ(Q))^((q²−1)/r)
//
// The Miller loop uses BKLS denominator elimination (vertical lines take
// values in F_q, which the final exponentiation kills), and the final
// exponentiation uses (q²−1)/r = (q−1)·h together with the fact that the
// q-power Frobenius on F_q² is complex conjugation.
//
// Group elements are exposed with multiplicative notation (Mul, Exp, Inv,
// One) so that code using this package reads like the paper's formulas, even
// though G is internally an elliptic-curve group written additively.
//
// Every operation has one implementation, on fixed-width Montgomery limbs
// (q up to 512 bits) with math/big only at the API boundary, and a Params
// value cannot change after construction. The affine math/big reference
// functions (reference.go) are the oracle the tests pin each operation
// against. Neither is constant-time, so this package must not be used to
// protect real data. It exists to reproduce the paper's algorithms and
// performance shapes.
package pairing
