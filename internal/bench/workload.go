// Package bench regenerates the paper's evaluation: the workload generators,
// parameter sweeps, timing harness and table/figure renderers behind every
// row of Tables I–IV and every series of Figures 3 and 4, plus the
// revocation and decrypt-aggregation ablations. cmd/maacs-bench and the
// repository-root benchmarks are thin wrappers over this package.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"maacs/internal/core"
	"maacs/internal/lewko"
	"maacs/internal/lsss"
	"maacs/internal/pairing"
)

// Config describes one workload point, matching the paper's sweep axes.
type Config struct {
	// Params selects the pairing group (Default for paper scale).
	Params *pairing.Params
	// Authorities is the number of attribute authorities n_A.
	Authorities int
	// AttrsPerAuthority is the number of attributes per authority the
	// ciphertext involves (and the user holds), the paper's n_k.
	AttrsPerAuthority int
	// Rnd supplies randomness.
	Rnd io.Reader
}

// TotalAttrs returns l = n_A·n_k, the number of policy rows.
func (c Config) TotalAttrs() int { return c.Authorities * c.AttrsPerAuthority }

// aidOf names authority k.
func aidOf(k int) string { return fmt.Sprintf("aa%02d", k) }

// attrNames returns the local attribute names each authority manages.
func attrNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("attr%02d", i)
	}
	return out
}

// policyFor builds the paper's figure workload: an AND policy over every
// attribute of every involved authority (so all l rows participate in both
// encryption and decryption, as in the PBC evaluation).
func policyFor(cfg Config) string {
	terms := make([]string, 0, cfg.TotalAttrs())
	for k := 0; k < cfg.Authorities; k++ {
		for _, n := range attrNames(cfg.AttrsPerAuthority) {
			terms = append(terms, aidOf(k)+":"+n)
		}
	}
	return strings.Join(terms, " AND ")
}

// OursWorkload is a ready-to-measure deployment of the paper's scheme at one
// workload point: system, owner, authorities, a user holding every involved
// attribute, and the pre-compiled policy.
type OursWorkload struct {
	Cfg    Config
	Sys    *core.System
	Owner  *core.Owner
	AAs    []*core.AA
	User   *core.UserPublicKey
	SKs    map[string]*core.SecretKey
	Policy string
	Matrix *lsss.Matrix
	Msg    *pairing.GT
}

// SetupOurs builds the workload for the paper's scheme.
func SetupOurs(cfg Config) (*OursWorkload, error) {
	sys := core.NewSystem(cfg.Params)
	ca := core.NewCA(sys)
	owner, err := core.NewOwner(sys, "bench-owner", cfg.Rnd)
	if err != nil {
		return nil, err
	}
	w := &OursWorkload{
		Cfg:    cfg,
		Sys:    sys,
		Owner:  owner,
		SKs:    make(map[string]*core.SecretKey, cfg.Authorities),
		Policy: policyFor(cfg),
	}
	user, err := ca.RegisterUser("bench-user", cfg.Rnd)
	if err != nil {
		return nil, err
	}
	w.User = user
	names := attrNames(cfg.AttrsPerAuthority)
	for k := 0; k < cfg.Authorities; k++ {
		aid := aidOf(k)
		if err := ca.RegisterAA(aid); err != nil {
			return nil, err
		}
		aa, err := core.NewAA(sys, aid, names, cfg.Rnd)
		if err != nil {
			return nil, err
		}
		w.AAs = append(w.AAs, aa)
		owner.InstallPublicKeys(aa.PublicKeys())
		sk, err := aa.KeyGen(user, owner.SecretKeyForAAs(), names)
		if err != nil {
			return nil, err
		}
		w.SKs[aid] = sk
	}
	w.Matrix, err = lsss.CompilePolicy(w.Policy, cfg.Params.R)
	if err != nil {
		return nil, err
	}
	w.Msg, _, err = cfg.Params.RandomGT(cfg.Rnd)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Encrypt measures one encryption.
func (w *OursWorkload) Encrypt() (*core.Ciphertext, time.Duration, error) {
	start := time.Now()
	ct, err := w.Owner.EncryptMatrix(w.Msg, w.Policy, w.Matrix, w.Cfg.Rnd)
	return ct, time.Since(start), err
}

// Decrypt measures one decryption with the paper's Eq. 1 as printed
// (core.DecryptEq1, n_A + 2l pairings), the cost profile Figs. 3(b) and
// 4(b) report, and verifies the result.
func (w *OursWorkload) Decrypt(ct *core.Ciphertext) (time.Duration, error) {
	return w.timeDecrypt(core.DecryptEq1, ct)
}

// DecryptAggregated measures one decryption on the path users run
// (core.Decrypt: two multi-exponentiations and one prepared two-loop
// pairing product) and verifies the result.
func (w *OursWorkload) DecryptAggregated(ct *core.Ciphertext) (time.Duration, error) {
	return w.timeDecrypt(core.Decrypt, ct)
}

func (w *OursWorkload) timeDecrypt(decrypt func(*core.System, *core.Ciphertext, *core.UserPublicKey, map[string]*core.SecretKey) (*pairing.GT, error), ct *core.Ciphertext) (time.Duration, error) {
	start := time.Now()
	got, err := decrypt(w.Sys, ct, w.User, w.SKs)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if !got.Equal(w.Msg) {
		return d, fmt.Errorf("bench: decryption mismatch")
	}
	return d, nil
}

// LewkoWorkload is the equivalent deployment of the baseline scheme.
type LewkoWorkload struct {
	Cfg    Config
	Sys    *lewko.System
	Auths  []*lewko.Authority
	PKs    map[string]*lewko.AttrPublicKey
	SK     *lewko.SecretKey
	Policy string
	Matrix *lsss.Matrix
	Msg    *pairing.GT
}

// SetupLewko builds the same workload point for the Lewko–Waters baseline.
func SetupLewko(cfg Config) (*LewkoWorkload, error) {
	sys := lewko.NewSystem(cfg.Params)
	w := &LewkoWorkload{
		Cfg:    cfg,
		Sys:    sys,
		PKs:    make(map[string]*lewko.AttrPublicKey),
		Policy: policyFor(cfg),
	}
	names := attrNames(cfg.AttrsPerAuthority)
	var parts []*lewko.SecretKey
	for k := 0; k < cfg.Authorities; k++ {
		auth, err := lewko.NewAuthority(sys, aidOf(k), names, cfg.Rnd)
		if err != nil {
			return nil, err
		}
		w.Auths = append(w.Auths, auth)
		for q, pk := range auth.PublicKeys() {
			w.PKs[q] = pk
		}
		sk, err := auth.KeyGen("bench-user", names)
		if err != nil {
			return nil, err
		}
		parts = append(parts, sk)
	}
	sk, err := lewko.Merge(parts...)
	if err != nil {
		return nil, err
	}
	w.SK = sk
	w.Matrix, err = lsss.CompilePolicy(w.Policy, cfg.Params.R)
	if err != nil {
		return nil, err
	}
	w.Msg, _, err = cfg.Params.RandomGT(cfg.Rnd)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Encrypt measures one encryption.
func (w *LewkoWorkload) Encrypt() (*lewko.Ciphertext, time.Duration, error) {
	start := time.Now()
	ct, err := lewko.EncryptMatrix(w.Sys, w.Msg, w.Policy, w.Matrix, w.PKs, w.Cfg.Rnd)
	return ct, time.Since(start), err
}

// Decrypt measures one decryption and verifies the result.
func (w *LewkoWorkload) Decrypt(ct *lewko.Ciphertext) (time.Duration, error) {
	start := time.Now()
	got, err := lewko.Decrypt(w.Sys, ct, w.SK)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if !got.Equal(w.Msg) {
		return d, fmt.Errorf("bench: lewko decryption mismatch")
	}
	return d, nil
}
