package core

import (
	"fmt"

	"maacs/internal/engine"
)

// ReEncrypt is the paper's ReEncrypt(CT, UI_AID, UK_AID), run by the cloud
// server with the proxy re-encryption method — the server never sees the
// plaintext or any secret key:
//
//	C̃   = C · e(UK1, C')                       // e(g,g)^(α s) → e(g,g)^(α̃ s)
//	C̃_i = C_i · UI_{ρ(i)}   if ρ(i) ∈ S_AID    // only affected rows change
//	C̃_i = C_i               otherwise
//
// It returns a new ciphertext at the advanced version and reports how many
// rows were touched (the partial re-encryption the paper's efficiency claim
// rests on).
func ReEncrypt(sys *System, ct *Ciphertext, ui *UpdateInfo, uk *UpdateKey) (*Ciphertext, int, error) {
	switch {
	case ui.AID != uk.AID:
		return nil, 0, fmt.Errorf("%w: update info for %q, update key for %q", ErrUnknownAuthority, ui.AID, uk.AID)
	case ui.CiphertextID != ct.ID:
		return nil, 0, fmt.Errorf("%w: update info for ciphertext %q", ErrUnknownCiphertext, ui.CiphertextID)
	case uk.OwnerID != ct.OwnerID:
		return nil, 0, fmt.Errorf("%w: update key for owner %q, ciphertext of %q", ErrWrongOwner, uk.OwnerID, ct.OwnerID)
	}
	cur, involved := ct.Versions[uk.AID]
	if !involved {
		// Nothing from this authority in the ciphertext: no work.
		return ct.Clone(), 0, nil
	}
	if cur != uk.FromVersion || ui.FromVersion != uk.FromVersion {
		return nil, 0, fmt.Errorf("%w: ciphertext@%d, update %d→%d", ErrVersionMismatch, cur, uk.FromVersion, uk.ToVersion)
	}

	out := ct.Clone()
	// One revocation applies the same UK1 to every stored ciphertext, so UK1
	// keeps its Miller-loop preparation: the first ciphertext pays for it,
	// the rest pair at about half the cost of a full pairing (they skip the
	// curve arithmetic, not the squarings or the final exponentiation).
	e, err := uk.UK1.Prepared().Pair(ct.CPrime)
	if err != nil {
		return nil, 0, err
	}
	out.C = ct.C.Mul(e)

	// Affected rows are independent one-multiplication jobs; at server scale
	// ReEncrypt itself runs as a job per ciphertext, so the row fan-out only
	// kicks in when a single wide ciphertext dominates.
	affected := make([]int, 0, len(ct.Matrix.Rho))
	for i, q := range ct.Matrix.Rho {
		if _, ok := ui.UI[q]; ok {
			affected = append(affected, i)
		}
	}
	_ = engine.Default().Run(len(affected), func(j int) error {
		i := affected[j]
		out.Rows[i] = ct.Rows[i].Mul(ui.UI[ct.Matrix.Rho[i]])
		return nil
	})
	out.Versions[uk.AID] = uk.ToVersion
	return out, len(affected), nil
}
