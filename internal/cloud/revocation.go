package cloud

import (
	"errors"
	"fmt"
	"sort"

	"maacs/internal/core"
)

// RevocationReport summarizes one end-to-end revocation for inspection and
// benchmarking.
type RevocationReport struct {
	AID             string
	RevokedUID      string
	RevokedAttr     string
	NewVersion      int
	UsersUpdated    int
	OwnersUpdated   int
	CiphertextsHit  int
	RowsReencrypted int
}

// AttributeRevocation is the per-attribute outcome of a user-level
// revocation: exactly one of Report (success) or Err (failure) is set.
type AttributeRevocation struct {
	Attr   string
	Report *RevocationReport
	Err    error
}

// RevokeUser revokes every attribute the user holds at this authority —
// the coarse "user-level revocation" that schemes [5]/[27] in the paper's
// Related Work are limited to, expressed here as repeated attribute-level
// revocations. Each attribute costs one version bump.
//
// Attributes are processed in sorted order and a failure does not stop the
// loop: every attribute is attempted, the outcome slice records which
// succeeded and which failed, and the returned error joins the per-attribute
// failures (nil when all succeeded). Stopping early used to leave the user
// half-revoked with no indication of how far the loop got.
func (a *Authority) RevokeUser(uid string) ([]AttributeRevocation, error) {
	attrs := a.HolderAttrs(uid)
	if len(attrs) == 0 {
		return nil, fmt.Errorf("cloud: %q holds no attributes at %q", uid, a.AA.AID())
	}
	sort.Strings(attrs)
	revoke := a.RevokeAttribute
	if a.revokeAttrHook != nil {
		revoke = a.revokeAttrHook
	}
	outcomes := make([]AttributeRevocation, 0, len(attrs))
	var errs []error
	for _, name := range attrs {
		report, err := revoke(uid, name)
		if err != nil {
			err = fmt.Errorf("revoke %q@%s from %q: %w", name, a.AA.AID(), uid, err)
			errs = append(errs, err)
			report = nil
		}
		outcomes = append(outcomes, AttributeRevocation{Attr: name, Report: report, Err: err})
	}
	return outcomes, errors.Join(errs...)
}

// RevokeAttribute runs the paper's complete two-phase attribute revocation
// (Section V-C) for one (user, attribute) pair at this authority:
//
// Phase 1 — Key Update:
//  1. the authority draws a new version key (ReKey),
//  2. the revoked user receives a fresh secret key over its reduced
//     attribute set S̃ (per owner),
//  3. every other holder of any of this authority's attributes receives the
//     update key and updates its secret keys (per owner),
//  4. every owner updates its public keys with the update key.
//
// Phase 2 — Data Re-encryption:
//  5. each owner generates update information for its stored ciphertexts,
//  6. the server proxy-re-encrypts the affected ciphertexts (touching only
//     rows with this authority's attributes) without ever decrypting.
func (a *Authority) RevokeAttribute(revokedUID, attrName string) (*RevocationReport, error) {
	env := a.env

	a.mu.Lock()
	held := a.holders[revokedUID]
	if held == nil || !held[attrName] {
		a.mu.Unlock()
		return nil, fmt.Errorf("cloud: %q does not hold %q@%s", revokedUID, attrName, a.AA.AID())
	}
	delete(held, attrName)
	reduced := make([]string, 0, len(held))
	for n := range held {
		reduced = append(reduced, n)
	}
	// Every user enrolled with this authority gets the update key — even
	// holders of an attribute-less base key, whose K component also embeds
	// the version key α ("sends out the update key to all the other users
	// in its administration domain", Section V-C).
	others := make([]string, 0, len(a.holders))
	for uid := range a.holders {
		if uid != revokedUID {
			others = append(others, uid)
		}
	}
	owners := make([]*core.OwnerSecretKey, 0, len(a.owners))
	for _, sk := range a.owners {
		owners = append(owners, sk)
	}
	a.mu.Unlock()

	// Phase 1, step 1: new version key.
	fromV, toV, err := a.AA.Rekey(env.rnd)
	if err != nil {
		return nil, err
	}
	report := &RevocationReport{
		AID:         a.AA.AID(),
		RevokedUID:  revokedUID,
		RevokedAttr: attrName,
		NewVersion:  toV,
	}

	env.mu.Lock()
	revoked := env.users[revokedUID]
	otherClients := make([]*UserClient, 0, len(others))
	for _, uid := range others {
		if uc, ok := env.users[uid]; ok {
			otherClients = append(otherClients, uc)
		}
	}
	ownerClients := make([]*OwnerClient, 0, len(env.owners))
	for _, oc := range env.owners {
		ownerClients = append(ownerClients, oc)
	}
	env.mu.Unlock()
	if revoked == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, revokedUID)
	}

	p := env.Sys.Params
	for _, ownerSK := range owners {
		uk, err := a.AA.UpdateKeyFor(ownerSK, fromV)
		if err != nil {
			return nil, err
		}

		// Step 2: fresh key (reduced set S̃) for the revoked user.
		newSK, err := a.AA.KeyGen(revoked.PK, ownerSK, reduced)
		if err != nil {
			return nil, err
		}
		revoked.installKey(newSK)
		env.Acct.Add(ChanAAUser, newSK.Size(p))

		// Step 3: update keys to all other holders.
		for _, uc := range otherClients {
			uc.mu.Lock()
			byAA := uc.sks[ownerSK.OwnerID]
			old := byAA[a.AA.AID()]
			uc.mu.Unlock()
			if old == nil {
				continue
			}
			updated, err := core.UpdateSecretKey(old, uk)
			if err != nil {
				return nil, fmt.Errorf("update key for %q: %w", uc.PK.UID, err)
			}
			uc.installKey(updated)
			env.Acct.Add(ChanAAUser, uk.Size(p))
			report.UsersUpdated++
		}

		// Step 4 + Phase 2: each owner updates public keys and produces
		// update information for its stored ciphertexts; the server
		// re-encrypts.
		for _, oc := range ownerClients {
			if oc.Owner.ID() != ownerSK.OwnerID {
				continue
			}
			env.Acct.Add(ChanAAOwner, uk.Size(p))
			cts := env.Server.CiphertextsOf(oc.Owner.ID())
			uis, err := oc.Owner.RevocationUpdate(uk, cts)
			if err != nil {
				return nil, fmt.Errorf("owner %q revocation update: %w", oc.Owner.ID(), err)
			}
			report.OwnersUpdated++
			uiByCT := make(map[string]*core.UpdateInfo)
			for _, ui := range uis {
				if ui != nil {
					uiByCT[ui.CiphertextID] = ui
				}
			}
			if len(uiByCT) == 0 {
				continue
			}
			reencReport, err := env.Server.ReEncrypt(oc.Owner.ID(), []ReEncryptItem{{UK: uk, UIs: uiByCT}})
			if err != nil {
				return nil, err
			}
			report.CiphertextsHit += reencReport.Ciphertexts
			report.RowsReencrypted += reencReport.Rows
		}
	}
	return report, nil
}
