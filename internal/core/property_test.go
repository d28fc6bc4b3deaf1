package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

// TestPropertyDecryptIffSatisfied is the central correctness property of the
// scheme: over random policies and random user attribute sets, decryption
// succeeds exactly when the attribute set satisfies the access structure —
// and when it succeeds it returns the encrypted message. On every trial
// Decrypt and DecryptEq1 must return the same G_T bytes or the same error.
// Outside -short the same workload runs again at paper scale.
func TestPropertyDecryptIffSatisfied(t *testing.T) {
	forEachScale(t, propertyDecryptIffSatisfied)
}

// propertyDecryptIffSatisfied runs 12 seeded random policies on params,
// each against 6 random users.
func propertyDecryptIffSatisfied(t *testing.T, params *pairing.Params) {
	rng := mrand.New(mrand.NewSource(20120703)) // deterministic workload
	f := newFixtureOn(t, params, map[string][]string{
		"a1": {"x0", "x1", "x2"},
		"a2": {"y0", "y1"},
		"a3": {"z0"},
	})
	universe := []string{"a1:x0", "a1:x1", "a1:x2", "a2:y0", "a2:y1", "a3:z0"}

	for trial := 0; trial < 12; trial++ {
		policy := randomPolicyOver(rng, universe)
		m := f.randomMessage()
		ct, err := f.owner.Encrypt(m, policy, rand.Reader)
		if err != nil {
			t.Fatalf("trial %d: Encrypt(%q): %v", trial, policy, err)
		}

		for sub := 0; sub < 6; sub++ {
			byAA := map[string][]string{"a1": nil, "a2": nil, "a3": nil}
			var held []string
			for _, q := range universe {
				if rng.Intn(2) == 0 {
					attr, err := ParseAttribute(q)
					if err != nil {
						t.Fatal(err)
					}
					byAA[attr.AID] = append(byAA[attr.AID], attr.Name)
					held = append(held, q)
				}
			}
			uid := fmt.Sprintf("pu-%d-%d", trial, sub)
			user := f.enrol(uid, byAA)

			want := ct.Matrix.Satisfies(held)
			got, err := decryptBoth(t, f.sys, ct, user.pk, user.sks)
			switch {
			case want && err != nil:
				t.Fatalf("trial %d/%d policy %q attrs %v: authorized decryption failed: %v",
					trial, sub, policy, held, err)
			case want && !got.Equal(m):
				t.Fatalf("trial %d/%d: wrong plaintext", trial, sub)
			case !want && err == nil:
				t.Fatalf("trial %d/%d policy %q attrs %v: unauthorized decryption succeeded",
					trial, sub, policy, held)
			case !want && !errors.Is(err, ErrPolicyNotSatisfied):
				t.Fatalf("trial %d/%d: wrong error: %v", trial, sub, err)
			}
		}
	}
}

// randomPolicyOver builds a random policy using each universe attribute at
// most once (ρ injective), with AND/OR/threshold gates.
func randomPolicyOver(rng *mrand.Rand, universe []string) string {
	attrs := append([]string(nil), universe...)
	rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	n := 2 + rng.Intn(len(attrs)-1)
	attrs = attrs[:n]
	var build func(items []string) string
	build = func(items []string) string {
		if len(items) == 1 {
			return items[0]
		}
		switch rng.Intn(3) {
		case 0: // AND split
			k := 1 + rng.Intn(len(items)-1)
			return "(" + build(items[:k]) + " AND " + build(items[k:]) + ")"
		case 1: // OR split
			k := 1 + rng.Intn(len(items)-1)
			return "(" + build(items[:k]) + " OR " + build(items[k:]) + ")"
		default: // threshold over singletons
			t := 1 + rng.Intn(len(items))
			return fmt.Sprintf("%d of (%s)", t, strings.Join(items, ", "))
		}
	}
	return build(attrs)
}

// TestPropertyRevocationInvariant checks, across random revocation orders,
// that after every revocation: (1) revoked users cannot decrypt any version
// of the data; (2) updated users always can; (3) versions stay consistent.
func TestPropertyRevocationInvariant(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	f := newFixture(t, map[string][]string{"a": {"x", "y"}})
	users := make([]*fixtureUser, 4)
	for i := range users {
		users[i] = f.enrol(fmt.Sprintf("u%d", i), map[string][]string{"a": {"x", "y"}})
	}
	m, ct := f.encrypt("a:x AND a:y")
	cts := []*Ciphertext{ct}
	revoked := make(map[int]bool)

	for round := 0; round < 3; round++ {
		// Pick a random not-yet-revoked user to revoke fully.
		var candidates []int
		for i := range users {
			if !revoked[i] {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) <= 1 {
			break
		}
		victim := candidates[rng.Intn(len(candidates))]
		revoked[victim] = true
		var others []*fixtureUser
		for i, u := range users {
			if i != victim && !revoked[i] {
				others = append(others, u)
			}
		}
		cts = revokeAttr(t, f, "a", users[victim], nil, others, cts)

		for i, u := range users {
			got, err := Decrypt(f.sys, cts[0], u.pk, u.sks)
			if revoked[i] {
				if err == nil && got.Equal(m) {
					t.Fatalf("round %d: revoked u%d still decrypts", round, i)
				}
			} else {
				if err != nil {
					t.Fatalf("round %d: active u%d failed: %v", round, i, err)
				}
				if !got.Equal(m) {
					t.Fatalf("round %d: active u%d wrong plaintext", round, i)
				}
			}
		}
		if cts[0].Versions["a"] != round+1 {
			t.Fatalf("round %d: ciphertext at version %d", round, cts[0].Versions["a"])
		}
	}
}
