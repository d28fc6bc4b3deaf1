package main

import (
	"crypto/rand"
	"strings"
	"testing"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

// TestOpenStore pins the -store/-data-dir contract: each backend name builds
// its store, a file store reopened over the same directory serves what it
// committed before closing, and bad settings are errors, not a silent
// in-memory fallback.
func TestOpenStore(t *testing.T) {
	sys := core.NewSystem(pairing.Test())
	dataDir := t.TempDir()
	cases := []struct {
		name    string
		cfg     config
		wantErr string
		check   func(t *testing.T, st cloud.Store)
	}{
		{
			name: "mem",
			cfg:  config{store: "mem"},
			check: func(t *testing.T, st cloud.Store) {
				if _, ok := st.(*cloud.MemStore); !ok {
					t.Fatalf("got %T, want *cloud.MemStore", st)
				}
			},
		},
		{
			name:    "file without data dir",
			cfg:     config{store: "file"},
			wantErr: "requires -data-dir",
		},
		{
			name: "file survives reopen",
			cfg:  config{store: "file", dataDir: dataDir},
			check: func(t *testing.T, st cloud.Store) {
				env := cloud.NewEnvWithStore(sys, rand.Reader, st)
				if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
					t.Fatal(err)
				}
				owner, err := env.AddOwner("o")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := owner.Upload("r1", []cloud.UploadComponent{
					{Label: "d", Data: []byte("v"), Policy: "a:x"},
				}); err != nil {
					t.Fatal(err)
				}
				if err := env.Server.Close(); err != nil {
					t.Fatal(err)
				}
				reopened, err := openStore(config{store: "file", dataDir: dataDir}, sys)
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				rec, ok := reopened.Get("r1")
				if !ok || rec.OwnerID != "o" || len(rec.Components) != 1 {
					t.Fatalf("after reopen: record %+v present=%v", rec, ok)
				}
			},
		},
		{
			name:    "unknown backend",
			cfg:     config{store: "sharded"},
			wantErr: `unknown -store "sharded"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := openStore(tc.cfg, sys)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got store %T, error %v; want error containing %q", st, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			tc.check(t, st)
		})
	}
}
