package cloud

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"maacs/internal/core"
	"maacs/internal/hybrid"
)

// Errors reported by the entity layer.
var (
	ErrUnknownUser  = errors.New("cloud: unknown user")
	ErrUnknownOwner = errors.New("cloud: unknown owner")
	ErrNoAccess     = errors.New("cloud: user cannot decrypt this component")
)

// Env is a fully wired deployment of the Fig. 1 system model.
type Env struct {
	Sys    *core.System
	CA     *core.CA
	Server *Server
	Acct   *Accounting
	rnd    io.Reader

	mu     sync.Mutex
	aas    map[string]*Authority
	owners map[string]*OwnerClient
	users  map[string]*UserClient
}

// NewEnv creates an empty environment over the given system parameters,
// with the default storage backend under the server.
func NewEnv(sys *core.System, rnd io.Reader) *Env {
	return NewEnvWithStore(sys, rnd, nil)
}

// NewEnvWithStore creates an environment whose server runs on an explicit
// storage backend (nil = the default), so scenarios and tests can exercise
// the file-backed engine through the full protocol.
func NewEnvWithStore(sys *core.System, rnd io.Reader, store Store) *Env {
	acct := NewAccounting()
	var server *Server
	if store == nil {
		server = NewServer(sys, acct)
	} else {
		server = NewServerWithStore(sys, acct, store)
	}
	return &Env{
		Sys:    sys,
		CA:     core.NewCA(sys),
		Server: server,
		Acct:   acct,
		rnd:    rnd,
		aas:    make(map[string]*Authority),
		owners: make(map[string]*OwnerClient),
		users:  make(map[string]*UserClient),
	}
}

// Authority wraps a core.AA with the bookkeeping an operating authority
// needs: which owners registered with it and which users hold which of its
// attributes (so it knows whom to send update keys to on revocation).
type Authority struct {
	env *Env
	AA  *core.AA

	mu      sync.Mutex
	owners  map[string]*core.OwnerSecretKey
	holders map[string]map[string]bool // uid → set of local attribute names

	// revokeAttrHook replaces RevokeAttribute inside RevokeUser; tests use
	// it to inject per-attribute failures into the aggregation path.
	revokeAttrHook func(uid, attrName string) (*RevocationReport, error)
}

// OwnerClient is a data owner: the core owner state plus upload helpers.
type OwnerClient struct {
	env   *Env
	Owner *core.Owner
}

// UserClient is a data consumer: its public identity plus the secret keys it
// has collected, indexed by owner then authority.
type UserClient struct {
	env *Env
	// UID is the identity the CA registered this user under; downloads are
	// attributed to it in the server's per-user counters.
	UID string
	PK  *core.UserPublicKey

	mu  sync.Mutex
	sks map[string]map[string]*core.SecretKey // ownerID → AID → key
}

// AddAuthority registers an authority with the CA and deploys it.
func (e *Env) AddAuthority(aid string, attrNames []string) (*Authority, error) {
	if err := e.CA.RegisterAA(aid); err != nil {
		return nil, err
	}
	aa, err := core.NewAA(e.Sys, aid, attrNames, e.rnd)
	if err != nil {
		return nil, err
	}
	a := &Authority{
		env:     e,
		AA:      aa,
		owners:  make(map[string]*core.OwnerSecretKey),
		holders: make(map[string]map[string]bool),
	}
	e.mu.Lock()
	e.aas[aid] = a
	e.mu.Unlock()
	return a, nil
}

// AddOwner creates an owner, registers it with every current authority and
// installs their public keys.
func (e *Env) AddOwner(id string) (*OwnerClient, error) {
	owner, err := core.NewOwner(e.Sys, id, e.rnd)
	if err != nil {
		return nil, err
	}
	oc := &OwnerClient{env: e, Owner: owner}
	e.mu.Lock()
	aas := make([]*Authority, 0, len(e.aas))
	for _, a := range e.aas {
		aas = append(aas, a)
	}
	e.owners[id] = oc
	e.mu.Unlock()
	for _, a := range aas {
		a.RegisterOwner(oc)
	}
	return oc, nil
}

// AddUser registers a user with the CA.
func (e *Env) AddUser(uid string) (*UserClient, error) {
	pk, err := e.CA.RegisterUser(uid, e.rnd)
	if err != nil {
		return nil, err
	}
	e.Acct.Add(ChanCAUser, pk.Size(e.Sys.Params))
	uc := &UserClient{env: e, UID: uid, PK: pk, sks: make(map[string]map[string]*core.SecretKey)}
	e.mu.Lock()
	e.users[uid] = uc
	e.mu.Unlock()
	return uc, nil
}

// Authority returns a deployed authority by AID.
func (e *Env) Authority(aid string) (*Authority, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.aas[aid]
	return a, ok
}

// RegisterOwner exchanges keys between an owner and this authority: the
// owner's SK_o goes to the authority; the authority's public keys go back.
func (a *Authority) RegisterOwner(oc *OwnerClient) {
	sk := oc.Owner.SecretKeyForAAs()
	a.mu.Lock()
	a.owners[sk.OwnerID] = sk
	a.mu.Unlock()
	pks := a.AA.PublicKeys()
	oc.Owner.InstallPublicKeys(pks)
	p := a.env.Sys.Params
	// SK_o: one G element plus one scalar; then the public key bundle back.
	a.env.Acct.Add(ChanAAOwner, p.GByteLen()+p.ScalarByteLen())
	a.env.Acct.Add(ChanAAOwner, pks.Size(p))
}

// AddAttribute extends the authority's attribute universe at runtime and
// pushes the refreshed public-key bundle (now including the new attribute's
// PK_{x,AID}) to every registered owner, so owners can immediately encrypt
// under the new attribute.
func (a *Authority) AddAttribute(name string) {
	a.AA.AddAttribute(name)
	pks := a.AA.PublicKeys()
	a.env.mu.Lock()
	owners := make([]*OwnerClient, 0, len(a.env.owners))
	for _, oc := range a.env.owners {
		owners = append(owners, oc)
	}
	a.env.mu.Unlock()
	for _, oc := range owners {
		a.mu.Lock()
		_, registered := a.owners[oc.Owner.ID()]
		a.mu.Unlock()
		if !registered {
			continue
		}
		oc.Owner.InstallPublicKeys(pks)
		a.env.Acct.Add(ChanAAOwner, pks.Size(a.env.Sys.Params))
	}
}

// GrantAttributes issues (or re-issues) secret keys for the user covering
// the given local attribute names, one key per registered owner, and records
// the user as a holder.
func (a *Authority) GrantAttributes(uc *UserClient, attrNames []string) error {
	a.mu.Lock()
	owners := make([]*core.OwnerSecretKey, 0, len(a.owners))
	for _, sk := range a.owners {
		owners = append(owners, sk)
	}
	set := a.holders[uc.PK.UID]
	if set == nil {
		set = make(map[string]bool)
		a.holders[uc.PK.UID] = set
	}
	for _, n := range attrNames {
		set[n] = true
	}
	a.mu.Unlock()

	for _, ownerSK := range owners {
		sk, err := a.AA.KeyGen(uc.PK, ownerSK, attrNames)
		if err != nil {
			return err
		}
		uc.installKey(sk)
		a.env.Acct.Add(ChanAAUser, sk.Size(a.env.Sys.Params))
	}
	return nil
}

// HolderAttrs returns the local attribute names uid currently holds here.
func (a *Authority) HolderAttrs(uid string) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for n := range a.holders[uid] {
		out = append(out, n)
	}
	return out
}

func (u *UserClient) installKey(sk *core.SecretKey) {
	u.mu.Lock()
	defer u.mu.Unlock()
	byAA := u.sks[sk.OwnerID]
	if byAA == nil {
		byAA = make(map[string]*core.SecretKey)
		u.sks[sk.OwnerID] = byAA
	}
	byAA[sk.AID] = sk
}

// keysFor returns the user's key set toward one owner.
func (u *UserClient) keysFor(ownerID string) map[string]*core.SecretKey {
	u.mu.Lock()
	defer u.mu.Unlock()
	byAA := u.sks[ownerID]
	out := make(map[string]*core.SecretKey, len(byAA))
	for aid, sk := range byAA {
		out[aid] = sk
	}
	return out
}

// UploadComponent describes one data component to upload: its label, its
// plaintext, and the access policy guarding it.
type UploadComponent struct {
	Label  string
	Data   []byte
	Policy string
}

// Upload splits, seals and uploads a record in the Fig. 2 format: each
// component gets a fresh content key sealed with AES-GCM, and each content
// key is CP-ABE-encrypted under the component's policy.
func (oc *OwnerClient) Upload(recordID string, comps []UploadComponent) (*Record, error) {
	p := oc.env.Sys.Params
	plain := make([]hybrid.Component, len(comps))
	for i, c := range comps {
		plain[i] = hybrid.Component{Label: c.Label, Data: c.Data}
	}
	sealed, keys, err := hybrid.SealComponents(p, plain, oc.env.rnd)
	if err != nil {
		return nil, err
	}
	rec := &Record{ID: recordID, OwnerID: oc.Owner.ID(), Components: make([]StoredComponent, len(comps))}
	for i, c := range comps {
		ct, err := oc.Owner.Encrypt(keys[i].Element, c.Policy, oc.env.rnd)
		if err != nil {
			return nil, fmt.Errorf("upload %q/%q: %w", recordID, c.Label, err)
		}
		rec.Components[i] = StoredComponent{Label: c.Label, CT: ct, Sealed: sealed[i].Sealed}
	}
	if err := oc.env.Server.Store(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// Delete removes one of the owner's records from the server and drops the
// matching encryption records from the owner's state.
func (oc *OwnerClient) Delete(recordID string) error {
	rec, err := oc.env.Server.Delete(recordID, oc.Owner.ID())
	if err != nil {
		return err
	}
	for _, comp := range rec.Components {
		oc.Owner.ForgetCiphertext(comp.CT.ID)
	}
	return nil
}

// fetch downloads a record (label == "") or one component through
// Server.FetchWire, the read path RPC CloudServer.Fetch serves, attributed to
// the user, and decodes the reply as RemoteServer does.
func (u *UserClient) fetch(recordID, label string) ([]StoredComponent, error) {
	_, raw, err := u.env.Server.FetchWire(recordID, label, u.UID)
	if err != nil {
		return nil, err
	}
	return decodeComponents(u.env.Sys, recordID, raw)
}

// Download fetches one component and decrypts it end to end: CP-ABE opens
// the content key, the content key opens the data. An empty label names no
// component: FetchWire reads it as the whole record.
func (u *UserClient) Download(recordID, label string) ([]byte, error) {
	if label == "" {
		return nil, fmt.Errorf("%w: %q/%q", ErrComponentNotFound, recordID, label)
	}
	comps, err := u.fetch(recordID, label)
	if err != nil {
		return nil, err
	}
	comp := comps[0]
	sks := u.keysFor(comp.CT.OwnerID)
	el, err := core.Decrypt(u.env.Sys, comp.CT, u.PK, sks)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoAccess, err)
	}
	key := &hybrid.ContentKey{Element: el}
	data, err := key.Open(comp.Sealed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoAccess, err)
	}
	return data, nil
}

// DownloadRecord fetches a record and decrypts every component the user can
// open, returning label → plaintext — the paper's "different users obtain
// different granularities of information from the same data".
func (u *UserClient) DownloadRecord(recordID string) (map[string][]byte, error) {
	comps, err := u.fetch(recordID, "")
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, comp := range comps {
		sks := u.keysFor(comp.CT.OwnerID)
		el, err := core.Decrypt(u.env.Sys, comp.CT, u.PK, sks)
		if err != nil {
			continue // component not accessible to this user
		}
		key := &hybrid.ContentKey{Element: el}
		data, err := key.Open(comp.Sealed)
		if err != nil {
			continue
		}
		out[comp.Label] = data
	}
	return out, nil
}
