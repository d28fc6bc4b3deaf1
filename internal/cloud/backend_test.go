package cloud

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"maacs/internal/core"
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
