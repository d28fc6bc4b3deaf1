// Package core implements the paper's primary contribution: the Yang–Jia
// multi-authority CP-ABE scheme with efficient attribute revocation
// (ICDCS 2012), built on the symmetric pairing in internal/pairing and the
// LSSS machinery in internal/lsss.
//
// The package exposes the eight algorithms of the paper's Definition 3:
//
//	Setup      → CA (NewCA, RegisterUser, RegisterAA)
//	OwnerGen   → NewOwner
//	AAGen      → NewAA
//	KeyGen     → AA.PublicKeys, AA.KeyGen
//	Encrypt    → Owner.Encrypt
//	Decrypt    → Decrypt (Eq. 1's value from two multi-exponentiations and
//	             one prepared two-loop pairing product; every user path) and
//	             DecryptEq1 (Eq. 1 as printed; the figures and the ablation)
//	ReKey      → AA.Rekey, AA.KeyGen (new key for the revoked user),
//	             UpdateSecretKey (non-revoked users), Owner.ApplyUpdate
//	ReEncrypt  → ReEncrypt (run by the cloud server; never decrypts)
//
// Attributes are fully qualified as "AID:name"; the paper's hash H is applied
// to the qualified name, which makes same-named attributes from different
// authorities distinct (the paper's anti-substitution property).
//
// Faithfulness notes:
//   - Secret keys are owner-specific: KeyGen consumes the owner's secret key
//     SK_o = {g^(1/β), r/β}, exactly as in the paper (Section V-B). A user
//     therefore holds one key set per (owner, authority) pair.
//   - To compute the re-encryption update information UI_x = (PK_x/P̃K_x)^(βs)
//     the owner must know the encryption exponent s of each ciphertext, so
//     Owner retains an encryption record (ciphertext ID → s). The paper does
//     not spell this out but ReEncrypt is not computable otherwise.
//   - Decrypt requires a secret key from every authority involved in the
//     ciphertext (even an attribute-less base key), because the blinding
//     factor is Π_{k∈I_A} e(g,g)^(α_k·s).
package core
