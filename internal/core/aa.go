package core

import (
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// AA is an attribute authority. Each AA independently manages the attributes
// of its own domain, holds the current version key α_AID (a scalar), and
// issues owner public keys, public attribute keys, user secret keys, and —
// on revocation — update keys.
type AA struct {
	sys *System
	aid string

	mu      sync.Mutex
	version int
	alphas  []*big.Int // version key history; alphas[version] is current
	attrs   map[string]bool
}

// OwnerPublicKey is PK_{o,AID} = e(g,g)^α_AID, used by owners for
// encryption. It is bound to the version of the authority's version key.
type OwnerPublicKey struct {
	AID     string
	Version int
	// EggAlpha is e(g,g)^α_AID.
	EggAlpha *pairing.GT
}

// AttrPublicKey is the public attribute key PK_{x,AID} = g^(α_AID·H(x)) for
// a single qualified attribute.
type AttrPublicKey struct {
	Attr    Attribute
	Version int
	PK      *pairing.G
}

// PublicKeys bundles everything an owner needs from one authority.
type PublicKeys struct {
	Owner *OwnerPublicKey
	Attrs map[string]*AttrPublicKey // keyed by qualified attribute name
}

// SecretKey is a user's decryption key from one authority, for one owner:
//
//	K      = PK_UID^(r/β) · g^(α/β)
//	K_x    = PK_UID^(α·H(x))   for every attribute x the user holds here
type SecretKey struct {
	UID     string
	AID     string
	OwnerID string
	Version int
	K       *pairing.G
	KAttr   map[string]*pairing.G // keyed by qualified attribute name
}

// UpdateKey carries the paper's (UK1, UK2) from one ReKey operation:
// UK1 = g^((α̃−α)/β) (owner-specific through β) and UK2 = α̃/α.
type UpdateKey struct {
	AID         string
	OwnerID     string
	FromVersion int
	ToVersion   int
	UK1         *pairing.G
	UK2         *big.Int
}

// NewAA runs AAGen: it creates an authority with a fresh version key and the
// given attribute universe (names local to the authority, e.g. "doctor").
func NewAA(sys *System, aid string, attrNames []string, rnd io.Reader) (*AA, error) {
	alpha, err := sys.Params.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("AAGen %q: %w", aid, err)
	}
	attrs := make(map[string]bool, len(attrNames))
	for _, n := range attrNames {
		attrs[n] = true
	}
	return &AA{
		sys:    sys,
		aid:    aid,
		alphas: []*big.Int{alpha},
		attrs:  attrs,
	}, nil
}

// AID returns the authority's identifier.
func (aa *AA) AID() string { return aa.aid }

// Version returns the current version of the authority's version key,
// incremented by every Rekey.
func (aa *AA) Version() int {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	return aa.version
}

// AttributeNames returns the sorted attribute universe of the authority.
func (aa *AA) AttributeNames() []string {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	out := make([]string, 0, len(aa.attrs))
	for n := range aa.attrs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddAttribute extends the authority's attribute universe.
func (aa *AA) AddAttribute(name string) {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	aa.attrs[name] = true
}

// Manages reports whether the authority manages the given local attribute
// name.
func (aa *AA) Manages(name string) bool {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	return aa.attrs[name]
}

// PublicKeys computes the owner public key PK_{o,AID} = e(g,g)^α and the
// public attribute keys PK_{x,AID} = g^(α·H(x)) for the current version key.
func (aa *AA) PublicKeys() *PublicKeys {
	aa.mu.Lock()
	alpha := aa.alphas[aa.version]
	version := aa.version
	names := make([]string, 0, len(aa.attrs))
	for n := range aa.attrs {
		names = append(names, n)
	}
	aa.mu.Unlock()
	sort.Strings(names)

	p := aa.sys.Params
	pks := &PublicKeys{
		Owner: &OwnerPublicKey{
			AID:      aa.aid,
			Version:  version,
			EggAlpha: p.GTGenerator().Exp(alpha),
		},
		Attrs: make(map[string]*AttrPublicKey, len(names)),
	}
	// Each attribute key is an independent fixed-base exponentiation of the
	// generator; fan them out across the engine pool and assemble the map
	// serially afterwards.
	attrPKs := make([]*AttrPublicKey, len(names))
	_ = engine.Default().Run(len(names), func(i int) error {
		attr := Attribute{AID: aa.aid, Name: names[i]}
		e := new(big.Int).Mul(alpha, p.HashToScalar([]byte(attr.Qualified())))
		attrPKs[i] = &AttrPublicKey{
			Attr:    attr,
			Version: version,
			PK:      p.FixedBaseExp(e),
		}
		return nil
	})
	for _, apk := range attrPKs {
		pks.Attrs[apk.Attr.Qualified()] = apk
	}
	return pks
}

// KeyGen issues a secret key to the user for the given local attribute
// names, bound to the supplied owner (through SK_o). This is the paper's
// KeyGen(S, SK_o, VK_AID, PK_UID).
func (aa *AA) KeyGen(user *UserPublicKey, ownerSK *OwnerSecretKey, attrNames []string) (*SecretKey, error) {
	aa.mu.Lock()
	alpha := aa.alphas[aa.version]
	version := aa.version
	for _, n := range attrNames {
		if !aa.attrs[n] {
			aa.mu.Unlock()
			return nil, fmt.Errorf("%w: %q@%s", ErrUnknownAttribute, n, aa.aid)
		}
	}
	aa.mu.Unlock()

	p := aa.sys.Params
	// K = PK_UID^(r/β) · g^(α/β); g^(α/β) = (g^(1/β))^α. Each half runs
	// through its base's own exponentiation comb.
	k := user.PK.ExpTable().Exp(ownerSK.ROverBeta).Mul(ownerSK.GInvBeta.ExpTable().Exp(alpha))
	sk := &SecretKey{
		UID:     user.UID,
		AID:     aa.aid,
		OwnerID: ownerSK.OwnerID,
		Version: version,
		K:       k,
		KAttr:   make(map[string]*pairing.G, len(attrNames)),
	}
	// Per-attribute key components are independent exponentiations of
	// PK_UID; run them on the engine pool.
	kAttrs := make([]*pairing.G, len(attrNames))
	_ = engine.Default().Run(len(attrNames), func(i int) error {
		attr := Attribute{AID: aa.aid, Name: attrNames[i]}
		e := new(big.Int).Mul(alpha, p.HashToScalar([]byte(attr.Qualified())))
		kAttrs[i] = user.PK.Exp(e)
		return nil
	})
	for i, n := range attrNames {
		sk.KAttr[Attribute{AID: aa.aid, Name: n}.Qualified()] = kAttrs[i]
	}
	return sk, nil
}

// Rekey is the version-key half of the paper's ReKey algorithm: the
// authority draws a fresh version key α̃ and advances its version. Update
// keys for owners and non-revoked users are derived with UpdateKeyFor; the
// revoked user's replacement key (over its reduced attribute set S̃) is
// issued with a fresh KeyGen call.
func (aa *AA) Rekey(rnd io.Reader) (fromVersion, toVersion int, err error) {
	alphaNew, err := aa.sys.Params.RandomScalar(rnd)
	if err != nil {
		return 0, 0, fmt.Errorf("rekey %q: %w", aa.aid, err)
	}
	aa.mu.Lock()
	defer aa.mu.Unlock()
	// α̃ must differ from every previous version key.
	for _, prev := range aa.alphas {
		if prev.Cmp(alphaNew) == 0 {
			return 0, 0, fmt.Errorf("rekey %q: version key collision", aa.aid)
		}
	}
	aa.alphas = append(aa.alphas, alphaNew)
	aa.version++
	return aa.version - 1, aa.version, nil
}

// UpdateKeyFor derives the update key (UK1, UK2) that moves keys and public
// keys bound to the given owner from fromVersion to fromVersion+1.
// UK1 = (g^(1/β))^(α̃−α) and UK2 = α̃/α mod r.
func (aa *AA) UpdateKeyFor(ownerSK *OwnerSecretKey, fromVersion int) (*UpdateKey, error) {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	if fromVersion < 0 || fromVersion+1 > aa.version {
		return nil, fmt.Errorf("%w: no update from version %d (current %d)", ErrVersionMismatch, fromVersion, aa.version)
	}
	alphaOld := aa.alphas[fromVersion]
	alphaNew := aa.alphas[fromVersion+1]
	r := aa.sys.Params.R

	diff := new(big.Int).Sub(alphaNew, alphaOld)
	diff.Mod(diff, r)
	uk2 := new(big.Int).ModInverse(alphaOld, r)
	uk2.Mul(uk2, alphaNew)
	uk2.Mod(uk2, r)

	return &UpdateKey{
		AID:         aa.aid,
		OwnerID:     ownerSK.OwnerID,
		FromVersion: fromVersion,
		ToVersion:   fromVersion + 1,
		UK1:         ownerSK.GInvBeta.Exp(diff),
		UK2:         uk2,
	}, nil
}

// UpdateSecretKey applies an update key to a non-revoked user's secret key:
// K̃ = K·UK1 and K̃_x = K_x^UK2. It returns a new key and leaves sk intact.
func UpdateSecretKey(sk *SecretKey, uk *UpdateKey) (*SecretKey, error) {
	switch {
	case sk.AID != uk.AID:
		return nil, fmt.Errorf("%w: update key for %q applied to key from %q", ErrUnknownAuthority, uk.AID, sk.AID)
	case sk.OwnerID != uk.OwnerID:
		return nil, fmt.Errorf("%w: key owner %q, update key owner %q", ErrWrongOwner, sk.OwnerID, uk.OwnerID)
	case sk.Version != uk.FromVersion:
		return nil, fmt.Errorf("%w: key at version %d, update key from %d", ErrVersionMismatch, sk.Version, uk.FromVersion)
	}
	out := &SecretKey{
		UID:     sk.UID,
		AID:     sk.AID,
		OwnerID: sk.OwnerID,
		Version: uk.ToVersion,
		K:       sk.K.Mul(uk.UK1),
		KAttr:   make(map[string]*pairing.G, len(sk.KAttr)),
	}
	qs := sortedKeys(sk.KAttr)
	updated := make([]*pairing.G, len(qs))
	_ = engine.Default().Run(len(qs), func(i int) error {
		updated[i] = sk.KAttr[qs[i]].Exp(uk.UK2)
		return nil
	})
	for i, q := range qs {
		out.KAttr[q] = updated[i]
	}
	return out, nil
}
