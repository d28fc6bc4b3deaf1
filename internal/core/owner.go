package core

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"sync"

	"maacs/internal/engine"
	"maacs/internal/lsss"
	"maacs/internal/pairing"
)

// OwnerSecretKey is SK_o = {g^(1/β), r/β}, which the owner sends to every
// authority over a secure channel so the authority can issue user keys
// bound to this owner.
type OwnerSecretKey struct {
	OwnerID   string
	GInvBeta  *pairing.G
	ROverBeta *big.Int
}

// Owner is a data owner: it holds the master key MK_o = {β, r}, collects the
// authorities' public keys, encrypts content keys under LSSS policies, and
// participates in revocation (public-key update + update-information
// generation for the server).
type Owner struct {
	sys *System
	id  string

	beta *big.Int // master key component β
	r    *big.Int // master key component r
	sk   *OwnerSecretKey

	mu      sync.Mutex
	opks    map[string]*OwnerPublicKey // AID → current PK_{o,AID}
	apks    map[string]*AttrPublicKey  // qualified attr → current PK_{x,AID}
	records map[string]*big.Int        // ciphertext ID → encryption exponent s
}

// NewOwner runs OwnerGen: it draws the master key {β, r} and derives the
// owner's secret key SK_o = {g^(1/β), r/β}.
func NewOwner(sys *System, id string, rnd io.Reader) (*Owner, error) {
	beta, err := sys.Params.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("OwnerGen %q: %w", id, err)
	}
	r, err := sys.Params.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("OwnerGen %q: %w", id, err)
	}
	betaInv := new(big.Int).ModInverse(beta, sys.Params.R)
	rOverBeta := new(big.Int).Mul(r, betaInv)
	rOverBeta.Mod(rOverBeta, sys.Params.R)
	return &Owner{
		sys:  sys,
		id:   id,
		beta: beta,
		r:    r,
		sk: &OwnerSecretKey{
			OwnerID:   id,
			GInvBeta:  sys.Params.Generator().Exp(betaInv),
			ROverBeta: rOverBeta,
		},
		opks:    make(map[string]*OwnerPublicKey),
		apks:    make(map[string]*AttrPublicKey),
		records: make(map[string]*big.Int),
	}, nil
}

// ID returns the owner's identifier.
func (o *Owner) ID() string { return o.id }

// SecretKeyForAAs returns SK_o, which the owner transmits to each authority.
func (o *Owner) SecretKeyForAAs() *OwnerSecretKey { return o.sk }

// InstallPublicKeys records (or replaces) the public keys received from one
// authority.
func (o *Owner) InstallPublicKeys(pks *PublicKeys) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.opks[pks.Owner.AID] = pks.Owner
	for q, apk := range pks.Attrs {
		o.apks[q] = apk
	}
}

// Encrypt encrypts the message m ∈ G_T (a content key in the full system)
// under the boolean policy over qualified attributes, e.g.
// "aa1:doctor AND (aa2:researcher OR aa2:nurse)".
func (o *Owner) Encrypt(m *pairing.GT, policy string, rnd io.Reader) (*Ciphertext, error) {
	matrix, err := lsss.CompilePolicy(policy, o.sys.Params.R)
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	return o.EncryptMatrix(m, policy, matrix, rnd)
}

// EncryptMatrix is Encrypt for a pre-compiled access structure.
func (o *Owner) EncryptMatrix(m *pairing.GT, policy string, matrix *lsss.Matrix, rnd io.Reader) (*Ciphertext, error) {
	aids, err := involvedAuthorities(matrix)
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}

	o.mu.Lock()
	versions := make(map[string]int, len(aids))
	eggProduct := o.sys.Params.OneGT()
	for _, aid := range aids {
		opk, ok := o.opks[aid]
		if !ok {
			o.mu.Unlock()
			return nil, fmt.Errorf("%w: %q (owner has no public key from it)", ErrUnknownAuthority, aid)
		}
		versions[aid] = opk.Version
		eggProduct = eggProduct.Mul(opk.EggAlpha)
	}
	rowPKs := make([]*AttrPublicKey, len(matrix.Rho))
	for i, q := range matrix.Rho {
		apk, ok := o.apks[q]
		if !ok {
			o.mu.Unlock()
			return nil, fmt.Errorf("%w: no public attribute key for %q", ErrUnknownAttribute, q)
		}
		rowPKs[i] = apk
	}
	o.mu.Unlock()

	p := o.sys.Params
	s, err := p.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}
	shares, err := matrix.Share(s, rnd)
	if err != nil {
		return nil, fmt.Errorf("encrypt: %w", err)
	}

	betaS := new(big.Int).Mul(o.beta, s)
	betaS.Mod(betaS, p.R)
	negBetaS := new(big.Int).Neg(betaS)

	ct := &Ciphertext{
		OwnerID:  o.id,
		Policy:   policy,
		Matrix:   matrix,
		Versions: versions,
		C:        m.Mul(eggProduct.Exp(s)),
		CPrime:   p.FixedBaseExp(betaS),
		Rows:     make([]*pairing.G, len(matrix.Rho)),
	}
	// All randomness is drawn by now; the per-row jobs are pure group
	// arithmetic, so they fan out across the engine pool. Each row is one
	// simultaneous two-base exponentiation g^(r·λ_i) · PK_{ρ(i)}^(−βs).
	g := p.Generator()
	_ = engine.Default().Run(len(matrix.Rho), func(i int) error {
		rl := new(big.Int).Mul(o.r, shares[i])
		ct.Rows[i] = engine.DualExp(g, rl, rowPKs[i].PK, negBetaS)
		return nil
	})

	id, err := freshID(rnd)
	if err != nil {
		return nil, err
	}
	ct.ID = id

	o.mu.Lock()
	o.records[ct.ID] = s
	o.mu.Unlock()
	return ct, nil
}

// ApplyUpdate moves the owner's stored public keys for uk.AID to the next
// version: PK̃_o = PK_o^UK2 and PK̃_x = PK_x^UK2. Each replaced PK_x goes,
// and its exponentiation comb with it.
func (o *Owner) ApplyUpdate(uk *UpdateKey) error {
	if uk.OwnerID != o.id {
		return fmt.Errorf("%w: update key for owner %q", ErrWrongOwner, uk.OwnerID)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	opk, ok := o.opks[uk.AID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAuthority, uk.AID)
	}
	if opk.Version != uk.FromVersion {
		return fmt.Errorf("%w: owner at version %d, update from %d", ErrVersionMismatch, opk.Version, uk.FromVersion)
	}
	o.opks[uk.AID] = &OwnerPublicKey{
		AID:      uk.AID,
		Version:  uk.ToVersion,
		EggAlpha: opk.EggAlpha.Exp(uk.UK2),
	}
	for q, apk := range o.apks {
		if apk.Attr.AID != uk.AID {
			continue
		}
		o.apks[q] = &AttrPublicKey{
			Attr:    apk.Attr,
			Version: uk.ToVersion,
			PK:      apk.PK.ExpTable().Exp(uk.UK2),
		}
	}
	return nil
}

// ForgetCiphertext drops the encryption record of a deleted ciphertext so
// the owner's state does not grow forever. After this, revocation update
// information can no longer be produced for it.
func (o *Owner) ForgetCiphertext(ctID string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.records, ctID)
}

// RecordCount reports how many encryption records the owner retains.
func (o *Owner) RecordCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.records)
}

// UpdateInfo is the owner-generated re-encryption information for one
// ciphertext: UI_x = (PK_x / PK̃_x)^(βs) for every attribute x of the
// revoking authority that appears in the ciphertext.
type UpdateInfo struct {
	CiphertextID string
	AID          string
	FromVersion  int
	ToVersion    int
	UI           map[string]*pairing.G // qualified attribute → UI_x
}

// UpdateInfoFor computes the update information for one ciphertext. It must
// be called while the owner's public keys for uk.AID are still at
// uk.FromVersion (i.e. before ApplyUpdate); RevocationUpdate handles the
// ordering for callers.
func (o *Owner) UpdateInfoFor(ct *Ciphertext, uk *UpdateKey) (*UpdateInfo, error) {
	if ct.OwnerID != o.id {
		return nil, fmt.Errorf("%w: ciphertext of owner %q", ErrWrongOwner, ct.OwnerID)
	}
	if ct.Versions[uk.AID] != uk.FromVersion {
		return nil, fmt.Errorf("%w: ciphertext at version %d for %q, update from %d",
			ErrVersionMismatch, ct.Versions[uk.AID], uk.AID, uk.FromVersion)
	}
	o.mu.Lock()
	s, ok := o.records[ct.ID]
	if !ok {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownCiphertext, ct.ID)
	}
	affected := make(map[string]*AttrPublicKey)
	for _, q := range ct.Matrix.Rho {
		apk, ok := o.apks[q]
		if !ok {
			o.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, q)
		}
		if apk.Attr.AID == uk.AID {
			if apk.Version != uk.FromVersion {
				o.mu.Unlock()
				return nil, fmt.Errorf("%w: call UpdateInfoFor before ApplyUpdate", ErrVersionMismatch)
			}
			affected[q] = apk
		}
	}
	o.mu.Unlock()

	// UI_x = (PK_x / PK_x^UK2)^(βs) = PK_x^((1−UK2)·β·s).
	rMod := o.sys.Params.R
	exp := new(big.Int).Sub(big.NewInt(1), uk.UK2)
	exp.Mul(exp, o.beta)
	exp.Mul(exp, s)
	exp.Mod(exp, rMod)

	ui := &UpdateInfo{
		CiphertextID: ct.ID,
		AID:          uk.AID,
		FromVersion:  uk.FromVersion,
		ToVersion:    uk.ToVersion,
		UI:           make(map[string]*pairing.G, len(affected)),
	}
	// One revocation exponentiates the same PK_x for every stored ciphertext
	// (and again in ApplyUpdate), so the first ciphertext builds the comb
	// the owner's PK_x keeps and the rest reuse it.
	qs := sortedKeys(affected)
	uiVals := make([]*pairing.G, len(qs))
	_ = engine.Default().Run(len(qs), func(i int) error {
		uiVals[i] = affected[qs[i]].PK.ExpTable().Exp(exp)
		return nil
	})
	for i, q := range qs {
		ui.UI[q] = uiVals[i]
	}
	return ui, nil
}

// RevocationUpdate performs the owner's whole part of a revocation for the
// given ciphertexts: it generates the per-ciphertext update information
// (while the old public keys are still installed) and then updates the
// owner's public keys. Ciphertexts not involving the revoking authority are
// skipped (nil entry).
func (o *Owner) RevocationUpdate(uk *UpdateKey, cts []*Ciphertext) ([]*UpdateInfo, error) {
	uis := make([]*UpdateInfo, len(cts))
	err := engine.Default().Run(len(cts), func(i int) error {
		if _, involved := cts[i].Versions[uk.AID]; !involved {
			return nil
		}
		ui, err := o.UpdateInfoFor(cts[i], uk)
		if err != nil {
			return err
		}
		uis[i] = ui
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := o.ApplyUpdate(uk); err != nil {
		return nil, err
	}
	return uis, nil
}

func freshID(rnd io.Reader) (string, error) {
	var buf [16]byte
	if _, err := io.ReadFull(rnd, buf[:]); err != nil {
		// Fall back to crypto/rand if the caller's reader is exhausted.
		if _, err2 := rand.Read(buf[:]); err2 != nil {
			return "", fmt.Errorf("ciphertext id: %w", err)
		}
	}
	return hex.EncodeToString(buf[:]), nil
}
