package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchToolSmoke runs the whole tool on the fast curve with a minimal
// sweep and checks every experiment section renders with a shape verdict.
// The JSON reports go to a temp dir so the test never overwrites the
// committed BENCH_*.json artifacts with fast-curve numbers.
func TestBenchToolSmoke(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{"-fast", "-points", "2,3", "-trials", "1", "-fixed", "2", "-ciphertexts", "2",
		"-engine-json", filepath.Join(dir, "engine.json"),
		"-reencrypt-json", filepath.Join(dir, "reencrypt.json"),
		"-shardiso-json", filepath.Join(dir, "shardiso.json"),
		"-pairing-json", filepath.Join(dir, "pairing.json"),
		"-walcommit-json", filepath.Join(dir, "walcommit.json"),
		"-load-json", filepath.Join(dir, "load.json"),
		"-fetchpath-json", filepath.Join(dir, "fetchpath.json"),
		"-load-duration", "100ms", "-load-rates", "80",
		"-load-owners", "2", "-load-users", "2", "-load-records", "2",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV", "measured live",
		"Fig3a", "Fig3b", "Fig4a", "Fig4b", "shape:",
		"Revocation", "pirretti", "Ablation", "pairing_pp",
		"key-distribution cost vs population",
		"open-loop load", "wrote " + filepath.Join(dir, "load.json"),
		"wrote " + filepath.Join(dir, "fetchpath.json"),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// TestBenchToolRejectsUnknownMode pins the -what contract: an experiment
// name not on the canonical list must be an error naming the valid set, not
// a silent run-nothing success (the old behaviour).
func TestBenchToolRejectsUnknownMode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-fast", "-what", "tables,walcomit"}, &sb)
	if err == nil {
		t.Fatal("unknown -what mode accepted")
	}
	for _, want := range []string{`"walcomit"`, "valid:", "walcommit", "load"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestBenchToolRejectsBadPoints(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fast", "-points", "2,zero"}, &sb); err == nil {
		t.Fatal("bad points accepted")
	}
}
