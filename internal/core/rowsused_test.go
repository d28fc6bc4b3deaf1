package core

import (
	"fmt"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

// TestDecryptionCostScalesWithRowsUsed pins an efficiency property the
// paper's figures imply but never isolate: Eq. 1's pairing count is
// 2·|rows used| + n_A, so decrypting a wide OR with a single attribute
// costs far fewer pairings than decrypting the AND over all of them, even
// though the ciphertexts are the same size. Decrypt runs one PairMul (a
// single Miller pass that walks PK_UID's prepared lines beside C'⁻¹'s
// computed ones, and one final exponentiation) whatever the policy, and
// takes PK_UID's preparation once (built on the user's first decryption,
// reused after). The test counts pairings (pairing.SnapshotOpCounts)
// instead of timing them:
// its timed form, a 2× gap asserted on an expected 8×, failed when other
// test binaries shared the CPUs.
func TestDecryptionCostScalesWithRowsUsed(t *testing.T) {
	const width = 12
	names := make([]string, width)
	qualified := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("x%02d", i)
		qualified[i] = "a:" + names[i]
	}
	f := newFixture(t, map[string][]string{"a": names, "b": {"u", "v"}})
	oneAttr := f.enrol("one", map[string][]string{"a": {names[0]}})
	allAttrs := f.enrol("all", map[string][]string{"a": names, "b": {"u", "v"}})

	pairings := func(n int) pairing.OpCounts {
		return pairing.OpCounts{MillerPasses: uint64(n), FinalExps: uint64(n)}
	}
	for _, tc := range []struct {
		policy   string
		user     *fixtureUser
		nA, used int
	}{
		{strings.Join(qualified, " OR "), oneAttr, 1, 1},
		{strings.Join(qualified, " AND "), allAttrs, 1, width},
		{"a:x00 AND a:x01 AND a:x02 AND b:u AND b:v", allAttrs, 2, 5},
		{"(a:x00 OR a:x01 OR a:x02) AND b:v", allAttrs, 2, 2},
	} {
		m, ct := f.encrypt(tc.policy)
		for _, path := range []struct {
			name     string
			decrypt  decryptFunc
			want     pairing.OpCounts
			prepUses uint64
		}{
			{"DecryptEq1", DecryptEq1, pairings(tc.nA + 2*tc.used), 0},
			{"Decrypt", Decrypt, pairing.OpCounts{MillerPasses: 1, PreparedWalks: 1, FinalExps: 1}, 1},
		} {
			before := pairing.SnapshotOpCounts()
			got, err := path.decrypt(f.sys, ct, tc.user.pk, tc.user.sks)
			if err != nil {
				t.Fatalf("%s(%q): %v", path.name, tc.policy, err)
			}
			if !got.Equal(m) {
				t.Fatalf("%s(%q): wrong plaintext", path.name, tc.policy)
			}
			ops := pairing.SnapshotOpCounts().Delta(before)
			if uses := ops.PrepBuilds + ops.PrepReuses; uses != path.prepUses {
				t.Errorf("%s(%q) took %d preparations, want %d", path.name, tc.policy, uses, path.prepUses)
			}
			ops.PrepBuilds, ops.PrepReuses = 0, 0
			if ops != path.want {
				t.Errorf("%s(%q) ran %+v, want %+v", path.name, tc.policy, ops, path.want)
			}
		}
	}
}
