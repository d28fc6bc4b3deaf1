package core

import (
	"fmt"

	"maacs/internal/engine"
	"maacs/internal/lsss"
	"maacs/internal/pairing"
	"maacs/internal/wire"
)

// This file defines the wire encodings of every key and ciphertext the
// protocol ships between parties, used by the networked deployment and by
// any caller persisting key material. Access structures travel as the policy
// expression and are recompiled on decode (compilation is deterministic), so
// a forged matrix can never disagree with its policy.

// Marshal encodes a user public key.
func (u *UserPublicKey) Marshal() []byte {
	var e wire.Encoder
	e.String(u.UID)
	e.Blob(u.PK.Marshal())
	return e.Bytes()
}

// UnmarshalUserPublicKey decodes a user public key.
func UnmarshalUserPublicKey(p *pairing.Params, data []byte) (*UserPublicKey, error) {
	d := wire.NewDecoder(data)
	uid := d.String()
	pkRaw := d.Blob()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("user public key: %w", err)
	}
	pk, err := p.UnmarshalG(pkRaw)
	if err != nil {
		return nil, fmt.Errorf("user public key: %w", err)
	}
	return &UserPublicKey{UID: uid, PK: pk}, nil
}

// Marshal encodes a secret key.
func (sk *SecretKey) Marshal() []byte {
	var e wire.Encoder
	e.String(sk.UID)
	e.String(sk.AID)
	e.String(sk.OwnerID)
	e.Int(sk.Version)
	e.Blob(sk.K.Marshal())
	e.Int(len(sk.KAttr))
	for _, q := range sortedKeys(sk.KAttr) {
		e.String(q)
		e.Blob(sk.KAttr[q].Marshal())
	}
	return e.Bytes()
}

// UnmarshalSecretKey decodes a secret key, validating every group element.
func UnmarshalSecretKey(p *pairing.Params, data []byte) (*SecretKey, error) {
	d := wire.NewDecoder(data)
	sk := &SecretKey{
		UID:     d.String(),
		AID:     d.String(),
		OwnerID: d.String(),
		Version: d.Int(),
	}
	kRaw := d.Blob()
	n := d.Count(2)
	if d.Err() != nil {
		return nil, fmt.Errorf("secret key: %w", d.Err())
	}
	k, err := p.UnmarshalG(kRaw)
	if err != nil {
		return nil, fmt.Errorf("secret key K: %w", err)
	}
	sk.K = k
	sk.KAttr = make(map[string]*pairing.G, n)
	for i := 0; i < n; i++ {
		q := d.String()
		raw := d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("secret key attr %d: %w", i, d.Err())
		}
		kx, err := p.UnmarshalG(raw)
		if err != nil {
			return nil, fmt.Errorf("secret key attr %q: %w", q, err)
		}
		sk.KAttr[q] = kx
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("secret key: %w", err)
	}
	return sk, nil
}

// Marshal encodes an authority's public key bundle.
func (k *PublicKeys) Marshal() []byte {
	var e wire.Encoder
	e.String(k.Owner.AID)
	e.Int(k.Owner.Version)
	e.Blob(k.Owner.EggAlpha.Marshal())
	e.Int(len(k.Attrs))
	for _, q := range sortedKeys(k.Attrs) {
		apk := k.Attrs[q]
		e.String(apk.Attr.Name)
		e.Blob(apk.PK.Marshal())
	}
	return e.Bytes()
}

// UnmarshalPublicKeys decodes an authority's public key bundle.
func UnmarshalPublicKeys(p *pairing.Params, data []byte) (*PublicKeys, error) {
	d := wire.NewDecoder(data)
	aid := d.String()
	version := d.Int()
	eggRaw := d.Blob()
	n := d.Count(2)
	if d.Err() != nil {
		return nil, fmt.Errorf("public keys: %w", d.Err())
	}
	egg, err := p.UnmarshalGT(eggRaw)
	if err != nil {
		return nil, fmt.Errorf("public keys e(g,g)^α: %w", err)
	}
	out := &PublicKeys{
		Owner: &OwnerPublicKey{AID: aid, Version: version, EggAlpha: egg},
		Attrs: make(map[string]*AttrPublicKey, n),
	}
	for i := 0; i < n; i++ {
		name := d.String()
		raw := d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("public keys attr %d: %w", i, d.Err())
		}
		pk, err := p.UnmarshalG(raw)
		if err != nil {
			return nil, fmt.Errorf("public keys attr %q: %w", name, err)
		}
		attr := Attribute{AID: aid, Name: name}
		out.Attrs[attr.Qualified()] = &AttrPublicKey{Attr: attr, Version: version, PK: pk}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("public keys: %w", err)
	}
	return out, nil
}

// Marshal encodes a ciphertext. The access structure ships as the policy
// expression; versions ship sorted by AID.
func (ct *Ciphertext) Marshal() []byte {
	var e wire.Encoder
	ct.MarshalTo(&e)
	return e.Bytes()
}

// MarshalTo appends the ciphertext encoding to e — the form of Marshal for
// callers that pool encoders across serializations.
func (ct *Ciphertext) MarshalTo(e *wire.Encoder) {
	e.String(ct.ID)
	e.String(ct.OwnerID)
	e.String(ct.Policy)
	e.Int(len(ct.Versions))
	for _, aid := range sortedKeys(ct.Versions) {
		e.String(aid)
		e.Int(ct.Versions[aid])
	}
	e.Blob(ct.C.Marshal())
	e.Blob(ct.CPrime.Marshal())
	e.Int(len(ct.Rows))
	for _, row := range ct.Rows {
		e.Blob(row.Marshal())
	}
}

// UnmarshalCiphertext decodes a ciphertext, recompiling the access structure
// from the policy and validating every group element. The version map must
// name exactly the policy's authorities, in the strictly increasing AID
// order Marshal writes: ReEncrypt and RevocationUpdate decide from it
// whether a ciphertext is involved in a revocation. The elements decode
// through the engine's decoded-element cache, so a repeat of an encoding
// this process has already validated costs a lookup.
func UnmarshalCiphertext(p *pairing.Params, data []byte) (*Ciphertext, error) {
	d := wire.NewDecoder(data)
	ct := &Ciphertext{
		ID:      d.String(),
		OwnerID: d.String(),
		Policy:  d.String(),
	}
	nv := d.Count(2)
	if d.Err() != nil {
		return nil, fmt.Errorf("ciphertext: %w", d.Err())
	}
	ct.Versions = make(map[string]int, nv)
	prev := ""
	for i := 0; i < nv; i++ {
		aid := d.String()
		v := d.Int()
		if d.Err() != nil {
			return nil, fmt.Errorf("ciphertext version %d: %w", i, d.Err())
		}
		if i > 0 && aid <= prev {
			return nil, fmt.Errorf("ciphertext: version for authority %q out of order or repeated", aid)
		}
		ct.Versions[aid], prev = v, aid
	}
	cRaw := d.Blob()
	cpRaw := d.Blob()
	nRows := d.Count(1)
	if d.Err() != nil {
		return nil, fmt.Errorf("ciphertext: %w", d.Err())
	}
	matrix, err := lsss.CompilePolicy(ct.Policy, p.R)
	if err != nil {
		return nil, fmt.Errorf("ciphertext policy: %w", err)
	}
	if len(matrix.Rho) != nRows {
		return nil, fmt.Errorf("ciphertext: %d rows for %d-row policy", nRows, len(matrix.Rho))
	}
	ct.Matrix = matrix
	aids, err := ct.InvolvedAuthorities()
	if err != nil {
		return nil, err
	}
	for _, aid := range aids {
		if _, ok := ct.Versions[aid]; !ok {
			return nil, fmt.Errorf("ciphertext: missing version for authority %q", aid)
		}
	}
	if len(ct.Versions) != len(aids) {
		return nil, fmt.Errorf("ciphertext: %d versions for %d policy authorities", len(ct.Versions), len(aids))
	}
	if ct.C, err = engine.DecodeGT(p, cRaw); err != nil {
		return nil, fmt.Errorf("ciphertext C: %w", err)
	}
	if ct.CPrime, err = engine.DecodeG(p, cpRaw); err != nil {
		return nil, fmt.Errorf("ciphertext C': %w", err)
	}
	ct.Rows = make([]*pairing.G, nRows)
	for i := 0; i < nRows; i++ {
		raw := d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("ciphertext row %d: %w", i, d.Err())
		}
		if ct.Rows[i], err = engine.DecodeG(p, raw); err != nil {
			return nil, fmt.Errorf("ciphertext row %d: %w", i, err)
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("ciphertext: %w", err)
	}
	return ct, nil
}

// Marshal encodes an update key.
func (uk *UpdateKey) Marshal() []byte {
	var e wire.Encoder
	e.String(uk.AID)
	e.String(uk.OwnerID)
	e.Int(uk.FromVersion)
	e.Int(uk.ToVersion)
	e.Blob(uk.UK1.Marshal())
	e.Blob(uk.UK2.Bytes())
	return e.Bytes()
}

// UnmarshalUpdateKey decodes an update key.
func UnmarshalUpdateKey(p *pairing.Params, data []byte) (*UpdateKey, error) {
	d := wire.NewDecoder(data)
	uk := &UpdateKey{
		AID:         d.String(),
		OwnerID:     d.String(),
		FromVersion: d.Int(),
		ToVersion:   d.Int(),
	}
	uk1Raw := d.Blob()
	uk2Raw := d.Blob()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("update key: %w", err)
	}
	uk1, err := p.UnmarshalG(uk1Raw)
	if err != nil {
		return nil, fmt.Errorf("update key UK1: %w", err)
	}
	uk.UK1 = uk1
	uk.UK2 = newScalar(uk2Raw)
	if uk.UK2.Cmp(p.R) >= 0 || uk.UK2.Sign() == 0 {
		return nil, fmt.Errorf("update key UK2 out of range")
	}
	return uk, nil
}

// Marshal encodes re-encryption update information.
func (ui *UpdateInfo) Marshal() []byte {
	var e wire.Encoder
	e.String(ui.CiphertextID)
	e.String(ui.AID)
	e.Int(ui.FromVersion)
	e.Int(ui.ToVersion)
	e.Int(len(ui.UI))
	for _, q := range sortedKeys(ui.UI) {
		e.String(q)
		e.Blob(ui.UI[q].Marshal())
	}
	return e.Bytes()
}

// UnmarshalUpdateInfo decodes re-encryption update information.
func UnmarshalUpdateInfo(p *pairing.Params, data []byte) (*UpdateInfo, error) {
	d := wire.NewDecoder(data)
	ui := &UpdateInfo{
		CiphertextID: d.String(),
		AID:          d.String(),
		FromVersion:  d.Int(),
		ToVersion:    d.Int(),
	}
	n := d.Count(2)
	if d.Err() != nil {
		return nil, fmt.Errorf("update info: %w", d.Err())
	}
	ui.UI = make(map[string]*pairing.G, n)
	for i := 0; i < n; i++ {
		q := d.String()
		raw := d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("update info entry %d: %w", i, d.Err())
		}
		el, err := p.UnmarshalG(raw)
		if err != nil {
			return nil, fmt.Errorf("update info %q: %w", q, err)
		}
		ui.UI[q] = el
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("update info: %w", err)
	}
	return ui, nil
}
