package cloud

import (
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
)

// TestMain lets the whole cloud test suite run against the file backend:
// MAACS_STORE=file reroutes every NewServer call (and so every NewEnv)
// through a fresh FileStore. scripts/check.sh uses this to gate the file
// engine on the full protocol suite, not just the store-level tests.
func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	switch backend := os.Getenv("MAACS_STORE"); backend {
	case "", "mem":
	case "file":
		root, err := os.MkdirTemp("", "maacs-store-suite-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "cloud: MAACS_STORE temp dir:", err)
			return 2
		}
		defer os.RemoveAll(root)
		var serverSeq atomic.Int64
		defaultStore = func(sys *core.System) Store {
			dir := filepath.Join(root, fmt.Sprintf("srv-%04d", serverSeq.Add(1)))
			fs, err := OpenFileStore(sys, dir)
			if err != nil {
				panic(fmt.Sprintf("cloud: MAACS_STORE backend: %v", err))
			}
			return fs
		}
	default:
		fmt.Fprintf(os.Stderr, "cloud: unknown MAACS_STORE %q (want mem or file)\n", backend)
		return 2
	}
	return m.Run()
}

// TestNewEnvWithStoreBuildsNoDefaultStore pins that an explicit store is the
// only backend NewEnvWithStore opens. It used to build a default server
// first and drop it, which leaked a FileStore under MAACS_STORE=file.
func TestNewEnvWithStoreBuildsNoDefaultStore(t *testing.T) {
	prev := defaultStore
	t.Cleanup(func() { defaultStore = prev })
	calls := 0
	defaultStore = func(*core.System) Store {
		calls++
		return NewMemStore()
	}
	sys := core.NewSystem(pairing.Test())

	if err := NewEnvWithStore(sys, rand.Reader, NewMemStore()).Server.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("NewEnvWithStore with an explicit store opened %d default store(s)", calls)
	}
	if err := NewEnv(sys, rand.Reader).Server.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("NewEnv opened %d default store(s), want 1", calls)
	}
}
