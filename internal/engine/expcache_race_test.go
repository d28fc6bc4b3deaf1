package engine_test

import (
	mrand "math/rand"
	"sync"
	"testing"

	"maacs/internal/engine"
	"maacs/internal/pairing"
	"maacs/internal/waters"
)

// TestExpCacheConcurrentEncrypts runs many scheme encrypts concurrently on
// one public key, whose bases (g^a and the memoized H(x)) keep their combs,
// and compares every ciphertext against a serial baseline produced from the
// same randomness stream: the shared combs must be race-free and must not
// change any result, and the concurrent run must actually reuse them (hit
// counter advances, no comb is built).
func TestExpCacheConcurrentEncrypts(t *testing.T) {
	p := pairing.Test()
	auth, err := waters.Setup(p, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	const policy = "(a OR b) AND (c OR d)"
	const n = 8

	msgs := make([]*pairing.GT, n)
	for i := range msgs {
		m, _, err := p.RandomGT(mrand.New(mrand.NewSource(int64(100 + i))))
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = m
	}

	restore := engine.SetWorkers(1)
	base := make([]*waters.Ciphertext, n)
	for i := range base {
		ct, err := waters.Encrypt(auth.PK, msgs[i], policy, mrand.New(mrand.NewSource(int64(200+i))))
		if err != nil {
			t.Fatal(err)
		}
		base[i] = ct
	}
	restore()

	restore = engine.SetWorkers(4)
	defer restore()
	before := engine.SnapshotStats()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	cts := make([]*waters.Ciphertext, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ct, err := waters.Encrypt(auth.PK, msgs[i], policy, mrand.New(mrand.NewSource(int64(200+i))))
			if err != nil {
				errs <- err
				return
			}
			cts[i] = ct
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range cts {
		if !cts[i].C.Equal(base[i].C) || !cts[i].CPrime.Equal(base[i].CPrime) {
			t.Fatalf("encrypt %d: header differs from serial baseline", i)
		}
		if len(cts[i].Ci) != len(base[i].Ci) {
			t.Fatalf("encrypt %d: row count differs", i)
		}
		for j := range cts[i].Ci {
			if !cts[i].Ci[j].Equal(base[i].Ci[j]) || !cts[i].Di[j].Equal(base[i].Di[j]) {
				t.Fatalf("encrypt %d row %d: differs from serial baseline", i, j)
			}
		}
	}
	after := engine.SnapshotStats()
	if after.ExpHits == before.ExpHits {
		t.Fatal("concurrent encrypts never reused a comb")
	}
	if after.ExpMisses != before.ExpMisses {
		t.Fatalf("concurrent encrypts on a warm public key built %d combs", after.ExpMisses-before.ExpMisses)
	}

	// Every concurrently-produced ciphertext must still decrypt.
	sk, err := auth.KeyGen([]string{"a", "c"}, mrand.New(mrand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cts {
		got, err := waters.Decrypt(p, cts[i], sk)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(msgs[i]) {
			t.Fatalf("encrypt %d: round trip mismatch", i)
		}
	}
}
