// Package lewko implements the prime-order variant of Lewko–Waters
// "Decentralizing Attribute-Based Encryption" (EUROCRYPT 2011), the baseline
// scheme the paper compares against in every table and figure of its
// evaluation (Section VI).
//
// Each authority holds, for every attribute x it manages, two secret
// exponents (α_x, y_x) and publishes (e(g,g)^α_x, g^y_x). A user with global
// identity GID receives K_x = g^α_x · H(GID)^y_x. Encryption under an LSSS
// (M, ρ) shares the blinding exponent s and, independently, zero:
//
//	C_0   = m · e(g,g)^s
//	C_1,i = e(g,g)^λ_i · e(g,g)^(α_{ρ(i)}·r_i)
//	C_2,i = g^(r_i)
//	C_3,i = g^(y_{ρ(i)}·r_i) · g^(ω_i)
//
// Decryption pairs H(GID) into each row, which ties all rows to one GID and
// defeats collusion without any central authority.
//
// Attributes are qualified "AID:name" exactly as in internal/core so the two
// schemes run identical workloads in the benchmarks.
package lewko

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
	ErrUnknownAttribute   = errors.New("lewko: attribute not managed by this authority")
	ErrMissingKey         = errors.New("lewko: user key missing an attribute key")
	ErrPolicyNotSatisfied = errors.New("lewko: attributes do not satisfy the access policy")
	ErrMissingPublicKey   = errors.New("lewko: no public key installed for an attribute")
)

// System carries the global parameters: the pairing group and the hash of
// global identities into G.
type System struct {
	Params *pairing.Params
	gids   sync.Map // GID → *pairing.G, memoized H(GID)
}

// NewSystem wraps pairing parameters for the Lewko–Waters scheme.
func NewSystem(params *pairing.Params) *System {
	return &System{Params: params}
}

// HashGID maps a user's global identity to H(GID) ∈ G. The hash is a
// per-user constant, so it is computed once per System: KeyGen and every
// later Decrypt for the same GID reuse it, and decryption costs the 2l
// pairings the paper's comparison counts rather than a hash-to-curve on
// top.
func (s *System) HashGID(gid string) (*pairing.G, error) {
	if h, ok := s.gids.Load(gid); ok {
		return h.(*pairing.G), nil
	}
	h, err := s.Params.HashToG([]byte("lewko-gid:" + gid))
	if err != nil {
		return nil, err
	}
	s.gids.Store(gid, h)
	return h, nil
}

// attrSecret holds one attribute's authority-side secrets (α_x, y_x).
type attrSecret struct {
	alpha *big.Int
	y     *big.Int
}

// AttrPublicKey is the published key of one attribute:
// Egg = e(g,g)^α_x and GY = g^y_x.
type AttrPublicKey struct {
	Attr string // qualified name
	Egg  *pairing.GT
	GY   *pairing.G
}

// Authority manages a set of attributes, each with its own key pair. There
// is deliberately no authority-wide secret: the scheme is fully
// decentralized.
type Authority struct {
	sys *System
	aid string

	mu      sync.Mutex
	secrets map[string]*attrSecret // qualified attr → secrets
}

// NewAuthority creates an authority managing the given local attribute
// names.
func NewAuthority(sys *System, aid string, attrNames []string, rnd io.Reader) (*Authority, error) {
	a := &Authority{sys: sys, aid: aid, secrets: make(map[string]*attrSecret, len(attrNames))}
	for _, n := range attrNames {
		if err := a.AddAttribute(n, rnd); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// AID returns the authority identifier.
func (a *Authority) AID() string { return a.aid }

// AddAttribute creates the per-attribute key pair for a new local attribute.
func (a *Authority) AddAttribute(name string, rnd io.Reader) error {
	alpha, err := a.sys.Params.RandomScalar(rnd)
	if err != nil {
		return fmt.Errorf("lewko: add attribute %q: %w", name, err)
	}
	y, err := a.sys.Params.RandomScalar(rnd)
	if err != nil {
		return fmt.Errorf("lewko: add attribute %q: %w", name, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.secrets[a.aid+":"+name] = &attrSecret{alpha: alpha, y: y}
	return nil
}

// PublicKeys returns the published keys for every attribute the authority
// manages, keyed by qualified name.
func (a *Authority) PublicKeys() map[string]*AttrPublicKey {
	a.mu.Lock()
	qualified := make(map[string]*attrSecret, len(a.secrets))
	for q, s := range a.secrets {
		qualified[q] = s
	}
	a.mu.Unlock()

	p := a.sys.Params
	egg := p.GTGenerator()
	qs := make([]string, 0, len(qualified))
	for q := range qualified {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	pks := make([]*AttrPublicKey, len(qs))
	_ = engine.Default().Run(len(qs), func(i int) error {
		sec := qualified[qs[i]]
		pks[i] = &AttrPublicKey{
			Attr: qs[i],
			Egg:  egg.Exp(sec.alpha),
			GY:   p.FixedBaseExp(sec.y),
		}
		return nil
	})
	out := make(map[string]*AttrPublicKey, len(qs))
	for i, q := range qs {
		out[q] = pks[i]
	}
	return out
}

// SecretKey is a user's key material: one G element per attribute, all bound
// to the same GID through H(GID).
type SecretKey struct {
	GID   string
	KAttr map[string]*pairing.G // qualified attr → g^α_x·H(GID)^y_x
}

// KeyGen issues keys for the given local attribute names to the user with
// global identity gid.
func (a *Authority) KeyGen(gid string, attrNames []string) (*SecretKey, error) {
	h, err := a.sys.HashGID(gid)
	if err != nil {
		return nil, err
	}
	g := a.sys.Params.Generator()
	sk := &SecretKey{GID: gid, KAttr: make(map[string]*pairing.G, len(attrNames))}

	// Snapshot the secrets under the lock, then run the per-attribute
	// two-base exponentiations g^α_x · H(GID)^y_x on the engine pool.
	secs := make([]*attrSecret, len(attrNames))
	a.mu.Lock()
	for i, n := range attrNames {
		q := a.aid + ":" + n
		sec, ok := a.secrets[q]
		if !ok {
			a.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, q)
		}
		secs[i] = sec
	}
	a.mu.Unlock()

	keys := make([]*pairing.G, len(attrNames))
	_ = engine.Default().Run(len(attrNames), func(i int) error {
		keys[i] = g.ExpTable().Exp(secs[i].alpha).Mul(h.ExpTable().Exp(secs[i].y))
		return nil
	})
	for i, n := range attrNames {
		sk.KAttr[a.aid+":"+n] = keys[i]
	}
	return sk, nil
}

// Merge combines key material from several authorities for the same GID.
func Merge(keys ...*SecretKey) (*SecretKey, error) {
	if len(keys) == 0 {
		return nil, errors.New("lewko: no keys to merge")
	}
	out := &SecretKey{GID: keys[0].GID, KAttr: make(map[string]*pairing.G)}
	for _, k := range keys {
		if k.GID != out.GID {
			return nil, fmt.Errorf("lewko: cannot merge keys of %q and %q", out.GID, k.GID)
		}
		for q, v := range k.KAttr {
			out.KAttr[q] = v
		}
	}
	return out, nil
}

// Ciphertext is a Lewko–Waters encryption of a G_T message.
type Ciphertext struct {
	Policy string
	Matrix *lsss.Matrix
	C0     *pairing.GT
	C1     []*pairing.GT
	C2     []*pairing.G
	C3     []*pairing.G
}

// Size returns the byte size of the cryptographic payload, counted the way
// the paper's Table II counts it: (l+1)·|G_T| + 2l·|G|.
func (ct *Ciphertext) Size(p *pairing.Params) int {
	return (len(ct.C1)+1)*p.GTByteLen() + 2*len(ct.C2)*p.GByteLen()
}

// Size returns the byte size of a user's key material: n_{k,UID}·|G|.
func (sk *SecretKey) Size(p *pairing.Params) int {
	return len(sk.KAttr) * p.GByteLen()
}

// Size returns the byte size of one attribute's public key: |G_T| + |G|.
func (pk *AttrPublicKey) Size(p *pairing.Params) int {
	return p.GTByteLen() + p.GByteLen()
}

// AuthorityKeySize returns the byte size of an authority's secret state for
// n attributes: 2n·|p| (each attribute has α_x and y_x), the Table II/III
// "Authority Key" row for Lewko's scheme.
func AuthorityKeySize(p *pairing.Params, attrs int) int {
	return 2 * attrs * p.ScalarByteLen()
}

// Encrypt encrypts m under the policy using the published attribute keys
// (a map covering at least every attribute in the policy).
func Encrypt(sys *System, m *pairing.GT, policy string, pks map[string]*AttrPublicKey, rnd io.Reader) (*Ciphertext, error) {
	matrix, err := lsss.CompilePolicy(policy, sys.Params.R)
	if err != nil {
		return nil, fmt.Errorf("lewko encrypt: %w", err)
	}
	return EncryptMatrix(sys, m, policy, matrix, pks, rnd)
}

// EncryptMatrix is Encrypt for a pre-compiled access structure.
func EncryptMatrix(sys *System, m *pairing.GT, policy string, matrix *lsss.Matrix, pks map[string]*AttrPublicKey, rnd io.Reader) (*Ciphertext, error) {
	p := sys.Params
	s, err := p.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	lambda, err := matrix.Share(s, rnd)
	if err != nil {
		return nil, err
	}
	omega, err := matrix.Share(new(big.Int), rnd)
	if err != nil {
		return nil, err
	}

	egg := p.GTGenerator()
	g := p.Generator()
	l := len(matrix.Rho)
	ct := &Ciphertext{
		Policy: policy,
		Matrix: matrix,
		C0:     m.Mul(egg.Exp(s)),
		C1:     make([]*pairing.GT, l),
		C2:     make([]*pairing.G, l),
		C3:     make([]*pairing.G, l),
	}
	// Resolve public keys and draw every per-row scalar serially first (so a
	// deterministic rnd produces the same ciphertext at any worker count),
	// then fan the row arithmetic out across the engine pool.
	rowPKs := make([]*AttrPublicKey, l)
	rs := make([]*big.Int, l)
	for i, q := range matrix.Rho {
		pk, ok := pks[q]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingPublicKey, q)
		}
		rowPKs[i] = pk
		ri, err := p.RandomScalar(rnd)
		if err != nil {
			return nil, err
		}
		rs[i] = ri
	}
	_ = engine.Default().Run(l, func(i int) error {
		pk, ri := rowPKs[i], rs[i]
		ct.C1[i] = egg.Exp(lambda[i]).Mul(pk.Egg.Exp(ri))
		ct.C2[i] = p.FixedBaseExp(ri)
		ct.C3[i] = pk.GY.ExpTable().Exp(ri).Mul(g.ExpTable().Exp(omega[i]))
		return nil
	})
	return ct, nil
}

// Decrypt recovers the message when the key's attributes satisfy the policy.
// Cost: two pairings per used policy row (the profile the paper's Figures
// 3(b)/4(b) report for Lewko's scheme).
func Decrypt(sys *System, ct *Ciphertext, sk *SecretKey) (*pairing.GT, error) {
	held := make([]string, 0, len(sk.KAttr))
	for q := range sk.KAttr {
		held = append(held, q)
	}
	sort.Strings(held) // deterministic row selection in Reconstruct
	w, err := ct.Matrix.Reconstruct(held)
	if err != nil {
		if errors.Is(err, lsss.ErrNotSatisfied) {
			return nil, fmt.Errorf("%w: %v", ErrPolicyNotSatisfied, err)
		}
		return nil, err
	}
	h, err := sys.HashGID(sk.GID)
	if err != nil {
		return nil, err
	}

	// The two pairings per used row are independent; run each row as an
	// engine job and fold the terms in row order. Pairing count per row is
	// unchanged (the profile the paper's Figures 3(b)/4(b) report).
	used := make([]int, 0, len(w))
	for i := range w {
		used = append(used, i)
	}
	sort.Ints(used)
	p := sys.Params
	terms := make([]*pairing.GT, len(used))
	err = engine.Default().Run(len(used), func(j int) error {
		i := used[j]
		q := ct.Matrix.Rho[i]
		kx, ok := sk.KAttr[q]
		if !ok {
			return fmt.Errorf("%w: %q", ErrMissingKey, q)
		}
		e3, err := p.Pair(h, ct.C3[i])
		if err != nil {
			return err
		}
		e2, err := p.Pair(kx, ct.C2[i])
		if err != nil {
			return err
		}
		terms[j] = ct.C1[i].Mul(e3).Div(e2).Exp(w[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	blind := p.OneGT()
	for _, term := range terms {
		blind = blind.Mul(term)
	}
	return ct.C0.Div(blind), nil
}
