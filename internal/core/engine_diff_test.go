package core

import (
	mrand "math/rand"
	"testing"

	"maacs/internal/engine"
)

// The differential tests pin the engine's determinism guarantee for the
// paper's scheme: every refactored operation must produce bit-identical
// output at workers=1 (the inline serial path) and workers=8, given the same
// randomness stream.

// seededReader returns a deterministic io.Reader stream for a seed.
func seededReader(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}

// sameCiphertext fails the test unless the two ciphertexts are identical
// element by element.
func sameCiphertext(t *testing.T, a, b *Ciphertext, label string) {
	t.Helper()
	if !a.C.Equal(b.C) {
		t.Fatalf("%s: C differs", label)
	}
	if !a.CPrime.Equal(b.CPrime) {
		t.Fatalf("%s: C' differs", label)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row count %d vs %d", label, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !a.Rows[i].Equal(b.Rows[i]) {
			t.Fatalf("%s: row %d differs", label, i)
		}
	}
	if len(a.Versions) != len(b.Versions) {
		t.Fatalf("%s: versions differ", label)
	}
	for aid, v := range a.Versions {
		if b.Versions[aid] != v {
			t.Fatalf("%s: version of %q differs", label, aid)
		}
	}
}

var diffPolicies = []string{
	"med:doctor",
	"med:doctor AND uni:researcher",
	"med:doctor OR (med:nurse AND uni:student)",
	"2 of (med:doctor, med:surgeon, uni:professor)",
	"(med:doctor AND med:nurse) OR (uni:researcher AND uni:professor)",
}

func TestEncryptSerialParallelIdentical(t *testing.T) {
	f := twoAuthorityFixture(t)
	m := f.randomMessage()
	for pi, policy := range diffPolicies {
		seed := int64(1000 + pi)

		restore := engine.SetWorkers(1)
		ctSerial, err := f.owner.Encrypt(m, policy, seededReader(seed))
		restore()
		if err != nil {
			t.Fatalf("serial Encrypt(%q): %v", policy, err)
		}

		restore = engine.SetWorkers(8)
		ctParallel, err := f.owner.Encrypt(m, policy, seededReader(seed))
		restore()
		if err != nil {
			t.Fatalf("parallel Encrypt(%q): %v", policy, err)
		}

		sameCiphertext(t, ctSerial, ctParallel, policy)
	}
}

func TestDecryptSerialParallelIdentical(t *testing.T) {
	f := twoAuthorityFixture(t)
	alice := f.enrol("alice", map[string][]string{
		"med": {"doctor", "nurse", "surgeon"},
		"uni": {"researcher", "student", "professor"},
	})
	for _, policy := range diffPolicies {
		m, ct := f.encrypt(policy)
		type decryptFn func() (equalsM bool, err error)
		paths := map[string]decryptFn{
			"Decrypt": func() (bool, error) {
				got, err := Decrypt(f.sys, ct, alice.pk, alice.sks)
				return err == nil && got.Equal(m), err
			},
			"DecryptEq1": func() (bool, error) {
				got, err := DecryptEq1(f.sys, ct, alice.pk, alice.sks)
				return err == nil && got.Equal(m), err
			},
		}
		for name, fn := range paths {
			restore := engine.SetWorkers(1)
			okSerial, err := fn()
			restore()
			if err != nil {
				t.Fatalf("serial %s(%q): %v", name, policy, err)
			}
			restore = engine.SetWorkers(8)
			okParallel, err := fn()
			restore()
			if err != nil {
				t.Fatalf("parallel %s(%q): %v", name, policy, err)
			}
			if !okSerial || !okParallel {
				t.Fatalf("%s(%q): serial=%v parallel=%v, want both correct",
					name, policy, okSerial, okParallel)
			}
		}
	}
}

func TestKeyGenSerialParallelIdentical(t *testing.T) {
	f := twoAuthorityFixture(t)
	pk, err := f.ca.RegisterUser("diff-user", seededReader(7))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"doctor", "nurse", "surgeon"}

	restore := engine.SetWorkers(1)
	skSerial, err := f.aas["med"].KeyGen(pk, f.owner.SecretKeyForAAs(), names)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	restore = engine.SetWorkers(8)
	skParallel, err := f.aas["med"].KeyGen(pk, f.owner.SecretKeyForAAs(), names)
	restore()
	if err != nil {
		t.Fatal(err)
	}

	if !skSerial.K.Equal(skParallel.K) {
		t.Fatal("K differs")
	}
	if len(skSerial.KAttr) != len(skParallel.KAttr) {
		t.Fatal("KAttr size differs")
	}
	for q, k := range skSerial.KAttr {
		if !k.Equal(skParallel.KAttr[q]) {
			t.Fatalf("KAttr[%q] differs", q)
		}
	}
}

func TestReEncryptSerialParallelIdentical(t *testing.T) {
	f := twoAuthorityFixture(t)
	m := f.randomMessage()
	var cts []*Ciphertext
	for pi, policy := range diffPolicies {
		ct, err := f.owner.Encrypt(m, policy, seededReader(int64(2000+pi)))
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}

	fromV, _, err := f.aas["med"].Rekey(seededReader(31))
	if err != nil {
		t.Fatal(err)
	}
	uk, err := f.aas["med"].UpdateKeyFor(f.owner.SecretKeyForAAs(), fromV)
	if err != nil {
		t.Fatal(err)
	}

	// UpdateInfoFor is deterministic given owner state and must not depend
	// on the worker count either (it runs before ApplyUpdate advances the
	// installed keys, so both modes see identical state).
	updateInfos := func(workers int) []*UpdateInfo {
		restore := engine.SetWorkers(workers)
		defer restore()
		uis := make([]*UpdateInfo, len(cts))
		for i, ct := range cts {
			ui, err := f.owner.UpdateInfoFor(ct, uk)
			if err != nil {
				t.Fatal(err)
			}
			uis[i] = ui
		}
		return uis
	}
	uisSerial := updateInfos(1)
	uisParallel := updateInfos(8)
	for i := range uisSerial {
		if len(uisSerial[i].UI) != len(uisParallel[i].UI) {
			t.Fatalf("ct %d: UI size differs", i)
		}
		for q, v := range uisSerial[i].UI {
			if !v.Equal(uisParallel[i].UI[q]) {
				t.Fatalf("ct %d: UI[%q] differs", i, q)
			}
		}
	}

	reencAll := func(workers int) []*Ciphertext {
		restore := engine.SetWorkers(workers)
		defer restore()
		out := make([]*Ciphertext, len(cts))
		for i, ct := range cts {
			reenc, _, err := ReEncrypt(f.sys, ct, uisSerial[i], uk)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = reenc
		}
		return out
	}

	serial := reencAll(1)
	parallel := reencAll(8)
	for i := range serial {
		sameCiphertext(t, serial[i], parallel[i], cts[i].Policy)
	}
}
