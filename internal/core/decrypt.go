package core

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"maacs/internal/engine"
	"maacs/internal/lsss"
	"maacs/internal/pairing"
)

// Decrypt recovers the message of ct with the user's secret keys: one from
// every authority involved in the ciphertext, all issued to user for the
// ciphertext's owner at the ciphertext's versions. It returns the G_T
// element of the paper's decryption equation (Eq. 1, see DecryptEq1),
// computed as
//
//	m = C · e(PK_UID, C_agg) · e(C'⁻¹, K_agg)
//	C_agg = Π_i C_i^(e_i),  K_agg = Π_k K_k · Π_i K_{ρ(i)}^(−e_i),  e_i = w_i·n_A
//
// which moves Eq. 1's exponents from G_T into G: e(C_i, PK_UID)^(e_i)
// multiplies into e(PK_UID, C_agg) and e(C', K_{ρ(i)})^(e_i)/e(C', K_k)
// into e(C'⁻¹, K_agg), by bilinearity. Two multi-exponentiations build the
// aggregates, applying each e_i as its residue of least absolute value, so
// the small signed coefficients of AND gates cost a few doublings each.
// One pairing product then walks PK_UID's cached Miller lines (a user
// decrypts many records, so the preparation comes from the engine's LRU)
// beside C'⁻¹'s full Miller loop, sharing one squaring chain and one final
// exponentiation. C' is not prepared: it differs for every ciphertext.
// Decrypt runs serially. Its result and its errors match DecryptEq1's,
// which the tests and FuzzDecryptMatchesEq1 pin byte for byte.
func Decrypt(sys *System, ct *Ciphertext, user *UserPublicKey, sks map[string]*SecretKey) (*pairing.GT, error) {
	plan, err := newDecryptionPlan(sys, ct, user, sks)
	if err != nil {
		return nil, err
	}
	p := sys.Params
	one := big.NewInt(1)
	rows := make([]*pairing.G, len(plan.used))
	rowExps := make([]*big.Int, len(plan.used))
	keys := make([]*pairing.G, 0, len(plan.aids)+len(plan.used))
	keyExps := make([]*big.Int, 0, len(plan.aids)+len(plan.used))
	for _, aid := range plan.aids {
		keys = append(keys, sks[aid].K)
		keyExps = append(keyExps, one)
	}
	for j, i := range plan.used {
		e := new(big.Int).Mul(plan.w[i], plan.bigNA)
		rows[j], rowExps[j] = ct.Rows[i], e
		keys = append(keys, sks[plan.rows[i].aid].KAttr[plan.rows[i].attr])
		keyExps = append(keyExps, new(big.Int).Neg(e))
	}
	cAgg, err := p.MultiExp(rows, rowExps)
	if err != nil {
		return nil, err
	}
	kAgg, err := p.MultiExp(keys, keyExps)
	if err != nil {
		return nil, err
	}
	blind, err := engine.Prepared(user.PK).PairMul(cAgg, ct.CPrime.Inv(), kAgg)
	if err != nil {
		return nil, err
	}
	return ct.C.Mul(blind), nil
}

// DecryptEq1 implements the paper's decryption equation (Eq. 1) literally:
//
//	          Π_{k∈I_A} e(C', K_{UID,AID_k})
//	B = ───────────────────────────────────────────────────────────────
//	    Π_{k∈I_A} Π_{i∈I_{AID_k}} ( e(C_i, PK_UID) · e(C', K_{ρ(i)}) )^(w_i·n_A)
//
//	m = C / B⁻¹ … concretely  m = C · den / num  with num/den = Π e(g,g)^(α_k s)
//
// which costs n_A + 2·Σ_k|I_{AID_k}| pairings — the cost profile the paper's
// figures report, and the reason it is kept: Figs. 3(b) and 4(b), the
// engine report and the decryption ablation call it, and the tests use it
// as the oracle for Decrypt. The pairings are independent, so they run as
// jobs on the engine pool; partial results combine in index order, which
// keeps the output bit-identical to the serial loop. It accepts and
// rejects exactly what Decrypt does.
func DecryptEq1(sys *System, ct *Ciphertext, user *UserPublicKey, sks map[string]*SecretKey) (*pairing.GT, error) {
	plan, err := newDecryptionPlan(sys, ct, user, sks)
	if err != nil {
		return nil, err
	}
	p := sys.Params

	// Job layout: [0, n_A) numerator pairings e(C', K_k);
	// [n_A, n_A+|used|) denominator terms (e(C_i, PK_UID)·e(C', K_ρ(i)))^(w_i·n_A).
	nNum := len(plan.aids)
	numTerms := make([]*pairing.GT, nNum)
	denTerms := make([]*pairing.GT, len(plan.used))
	err = engine.Default().Run(nNum+len(plan.used), func(j int) error {
		if j < nNum {
			e, err := p.Pair(ct.CPrime, sks[plan.aids[j]].K)
			if err != nil {
				return err
			}
			numTerms[j] = e
			return nil
		}
		i := plan.used[j-nNum]
		kx := sks[plan.rows[i].aid].KAttr[plan.rows[i].attr]
		e1, err := p.Pair(ct.Rows[i], user.PK)
		if err != nil {
			return err
		}
		e2, err := p.Pair(ct.CPrime, kx)
		if err != nil {
			return err
		}
		exp := new(big.Int).Mul(plan.w[i], plan.bigNA)
		denTerms[j-nNum] = e1.Mul(e2).Exp(exp)
		return nil
	})
	if err != nil {
		return nil, err
	}

	num := p.OneGT()
	for _, e := range numTerms {
		num = num.Mul(e)
	}
	den := p.OneGT()
	for _, e := range denTerms {
		den = den.Mul(e)
	}
	// num/den = e(g,g)^(u·s·r·n_A) · Π e(g,g)^(α_k s) / e(g,g)^(u·s·r·n_A).
	blind := num.Div(den)
	return ct.C.Div(blind), nil
}

type rowAttr struct {
	attr string
	aid  string
}

// decryptionPlan is the validated, engine-ready description of one
// decryption: the row labelling, the reconstruction coefficients, the sorted
// list of row indices that participate, and the involved authorities.
type decryptionPlan struct {
	rows  []rowAttr
	w     map[int]*big.Int
	used  []int // sorted keys of w, the deterministic job order
	aids  []string
	bigNA *big.Int
}

// newDecryptionPlan validates keys against the ciphertext and produces the
// reconstruction coefficients.
func newDecryptionPlan(sys *System, ct *Ciphertext, user *UserPublicKey, sks map[string]*SecretKey) (*decryptionPlan, error) {
	aids, err := ct.InvolvedAuthorities()
	if err != nil {
		return nil, err
	}
	for _, aid := range aids {
		sk, ok := sks[aid]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingSecretKey, aid)
		}
		switch {
		case sk.UID != user.UID:
			return nil, fmt.Errorf("core: key UID %q ≠ user %q", sk.UID, user.UID)
		case sk.OwnerID != ct.OwnerID:
			return nil, fmt.Errorf("%w: key for owner %q, ciphertext of %q", ErrWrongOwner, sk.OwnerID, ct.OwnerID)
		case sk.Version != ct.Versions[aid]:
			return nil, fmt.Errorf("%w: key@%d vs ciphertext@%d for %q",
				ErrVersionMismatch, sk.Version, ct.Versions[aid], aid)
		}
	}

	rows := make([]rowAttr, len(ct.Matrix.Rho))
	var held []string
	for i, q := range ct.Matrix.Rho {
		attr, err := ParseAttribute(q)
		if err != nil {
			return nil, err
		}
		rows[i] = rowAttr{attr: q, aid: attr.AID}
		if sk, ok := sks[attr.AID]; ok {
			if _, has := sk.KAttr[q]; has {
				held = append(held, q)
			}
		}
	}
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
	return &decryptionPlan{
		rows:  rows,
		w:     w,
		used:  used,
		aids:  aids,
		bigNA: big.NewInt(int64(len(aids))),
	}, nil
}
