// Package waters implements Waters' single-authority CP-ABE (PKC 2011,
// reference [3] of the paper — the construction the paper's own scheme and
// security reduction build on). It serves two roles in this reproduction:
// it is the "traditional single-authority CP-ABE" the introduction contrasts
// with, and it is the substrate for the Hur–Noh revocation baseline in
// internal/hur.
//
// Setup:    α, a ∈ Z_r; PK = (g, e(g,g)^α, g^a, H:attr→G); MSK = g^α
// KeyGen:   t ∈ Z_r; K = g^α·g^(at), L = g^t, K_x = H(x)^t
// Encrypt:  s, shares λ_i of s, per-row r_i:
//
//	C = m·e(g,g)^(αs), C' = g^s,
//	C_i = g^(a·λ_i)·H(ρ(i))^(−r_i), D_i = g^(r_i)
//
// Decrypt:  e(C',K) / Π_i (e(C_i,L)·e(D_i,K_{ρ(i)}))^(w_i) = e(g,g)^(αs)
package waters

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"maacs/internal/engine"
	"maacs/internal/lsss"
	"maacs/internal/pairing"
)

// Errors reported by the scheme.
var (
	ErrPolicyNotSatisfied = errors.New("waters: attributes do not satisfy the access policy")
	ErrMissingKey         = errors.New("waters: key missing a required attribute component")
)

// PublicKey is the authority's public key.
type PublicKey struct {
	sys *pairing.Params
	// EggAlpha is e(g,g)^α.
	EggAlpha *pairing.GT
	// GA is g^a.
	GA *pairing.G

	attrs sync.Map // attribute → *pairing.G, memoized H(x)
}

// MasterKey is the authority's master secret g^α (plus a for key issuing).
type MasterKey struct {
	GAlpha *pairing.G
	A      *big.Int
}

// Authority couples the key pair with the pairing parameters.
type Authority struct {
	Params *pairing.Params
	PK     *PublicKey
	msk    *MasterKey
}

// SecretKey is a user's decryption key for an attribute set.
type SecretKey struct {
	K     *pairing.G
	L     *pairing.G
	KAttr map[string]*pairing.G
}

// Ciphertext is a Waters CP-ABE encryption of a G_T element.
type Ciphertext struct {
	Policy string
	Matrix *lsss.Matrix
	C      *pairing.GT
	CPrime *pairing.G
	Ci     []*pairing.G
	Di     []*pairing.G
}

// Setup creates a single-authority CP-ABE system over the given pairing
// parameters.
func Setup(params *pairing.Params, rnd io.Reader) (*Authority, error) {
	alpha, err := params.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("waters setup: %w", err)
	}
	a, err := params.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("waters setup: %w", err)
	}
	return &Authority{
		Params: params,
		PK: &PublicKey{
			sys:      params,
			EggAlpha: params.GTGenerator().Exp(alpha),
			GA:       params.Generator().Exp(a),
		},
		msk: &MasterKey{
			GAlpha: params.Generator().Exp(alpha),
			A:      a,
		},
	}, nil
}

// hashAttr maps an attribute name into G (the random-oracle h_x). The hash
// is a per-attribute constant, so it is computed once per public key:
// KeyGen and every later Encrypt reuse it, and with it the exponentiation
// comb Encrypt's rows build on it. The memo keeps every attribute the key
// has hashed, so it grows with the attribute names in use (pirretti's
// epoch-stamped names add one per attribute per epoch).
func (pk *PublicKey) hashAttr(attr string) (*pairing.G, error) {
	if h, ok := pk.attrs.Load(attr); ok {
		return h.(*pairing.G), nil
	}
	h, err := pk.sys.HashToG([]byte("waters-attr:" + attr))
	if err != nil {
		return nil, err
	}
	h0, _ := pk.attrs.LoadOrStore(attr, h)
	return h0.(*pairing.G), nil
}

// KeyGen issues a key for the attribute set.
func (a *Authority) KeyGen(attrs []string, rnd io.Reader) (*SecretKey, error) {
	p := a.Params
	t, err := p.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("waters keygen: %w", err)
	}
	at := new(big.Int).Mul(a.msk.A, t)
	sk := &SecretKey{
		K:     a.msk.GAlpha.Mul(p.FixedBaseExp(at)),
		L:     p.FixedBaseExp(t),
		KAttr: make(map[string]*pairing.G, len(attrs)),
	}
	// Per-attribute components H(x)^t are independent hash+exponentiation
	// jobs for the engine pool.
	kAttrs := make([]*pairing.G, len(attrs))
	err = engine.Default().Run(len(attrs), func(i int) error {
		h, err := a.PK.hashAttr(attrs[i])
		if err != nil {
			return err
		}
		kAttrs[i] = h.Exp(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, x := range attrs {
		sk.KAttr[x] = kAttrs[i]
	}
	return sk, nil
}

// Encrypt encrypts m under an LSSS policy.
func Encrypt(pk *PublicKey, m *pairing.GT, policy string, rnd io.Reader) (*Ciphertext, error) {
	matrix, err := lsss.CompilePolicy(policy, pk.sys.R)
	if err != nil {
		return nil, fmt.Errorf("waters encrypt: %w", err)
	}
	return EncryptMatrix(pk, m, policy, matrix, rnd)
}

// EncryptMatrix is Encrypt for a pre-compiled access structure.
func EncryptMatrix(pk *PublicKey, m *pairing.GT, policy string, matrix *lsss.Matrix, rnd io.Reader) (*Ciphertext, error) {
	p := pk.sys
	s, err := p.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	lambda, err := matrix.Share(s, rnd)
	if err != nil {
		return nil, err
	}
	l := len(matrix.Rho)
	ct := &Ciphertext{
		Policy: policy,
		Matrix: matrix,
		C:      m.Mul(pk.EggAlpha.Exp(s)),
		CPrime: p.FixedBaseExp(s),
		Ci:     make([]*pairing.G, l),
		Di:     make([]*pairing.G, l),
	}
	// Draw every per-row scalar serially first (deterministic rnd
	// consumption at any worker count), then fan the row arithmetic out.
	rs := make([]*big.Int, l)
	for i := range matrix.Rho {
		ri, err := p.RandomScalar(rnd)
		if err != nil {
			return nil, err
		}
		rs[i] = ri
	}
	err = engine.Default().Run(l, func(i int) error {
		h, err := pk.hashAttr(matrix.Rho[i])
		if err != nil {
			return err
		}
		ct.Ci[i] = engine.DualExp(pk.GA, lambda[i], h, new(big.Int).Neg(rs[i]))
		ct.Di[i] = p.FixedBaseExp(rs[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ct, nil
}

// Decrypt recovers the message when sk's attributes satisfy the policy.
func Decrypt(p *pairing.Params, ct *Ciphertext, sk *SecretKey) (*pairing.GT, error) {
	held := make([]string, 0, len(sk.KAttr))
	for q := range sk.KAttr {
		held = append(held, q)
	}
	sort.Strings(held)
	w, err := ct.Matrix.Reconstruct(held)
	if err != nil {
		if errors.Is(err, lsss.ErrNotSatisfied) {
			return nil, fmt.Errorf("%w: %v", ErrPolicyNotSatisfied, err)
		}
		return nil, err
	}
	used := make([]int, 0, len(w))
	for i := range w {
		used = append(used, i)
	}
	sort.Ints(used)
	num, err := p.Pair(ct.CPrime, sk.K)
	if err != nil {
		return nil, err
	}
	// The per-row pairings are independent jobs; terms fold in row order so
	// the result matches the serial loop bit-for-bit.
	terms := make([]*pairing.GT, len(used))
	err = engine.Default().Run(len(used), func(j int) error {
		i := used[j]
		q := ct.Matrix.Rho[i]
		kx, ok := sk.KAttr[q]
		if !ok {
			return fmt.Errorf("%w: %q", ErrMissingKey, q)
		}
		e1, err := p.Pair(ct.Ci[i], sk.L)
		if err != nil {
			return err
		}
		e2, err := p.Pair(ct.Di[i], kx)
		if err != nil {
			return err
		}
		terms[j] = e1.Mul(e2).Exp(w[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	den := p.OneGT()
	for _, t := range terms {
		den = den.Mul(t)
	}
	return ct.C.Div(num.Div(den)), nil
}

// Size returns the cryptographic payload size: |G_T| + (2l+1)·|G|.
func (ct *Ciphertext) Size(p *pairing.Params) int {
	return p.GTByteLen() + (2*len(ct.Ci)+1)*p.GByteLen()
}
