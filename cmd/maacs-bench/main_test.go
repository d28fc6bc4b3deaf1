package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maacs/internal/bench"
	"maacs/internal/pairing"
)

// TestBenchToolSmoke runs the whole tool on the fast curve with a minimal
// sweep and checks every experiment section renders with a shape verdict.
// The JSON reports go to a temp dir so the test never overwrites the
// committed BENCH_*.json artifacts with fast-curve numbers.
func TestBenchToolSmoke(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{"-fast", "-points", "2,3", "-trials", "1", "-fixed", "2", "-ciphertexts", "2",
		"-json-dir", dir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV", "measured live",
		"Fig3a", "Fig3b", "Fig4a", "Fig4b", "shape:",
		"Revocation", "pirretti", "Ablation", "prepared 2-loop product",
		"key-distribution cost vs population",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	for _, file := range artifacts {
		path := filepath.Join(dir, file)
		if !strings.Contains(out, "wrote "+path) {
			t.Fatalf("output missing %q", "wrote "+path)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArtifactsHaveOneHome pins where the committed reports live: every
// mode in the artifact table has its file at the repository root, the file
// decodes into that mode's report type, and it was measured with the
// current default parameters. The paper-run record results/benchrun.txt
// must name those parameters too. No BENCH_*.json exists anywhere else,
// and a run without -json-dir writes none.
func TestArtifactsHaveOneHome(t *testing.T) {
	const root = "../.."
	reports := map[string]any{
		"engine":          &bench.EngineReport{},
		"reencrypt-batch": &bench.ReEncryptBatchReport{},
		"walcommit":       &bench.WALCommitReport{},
		"fetchpath":       &bench.FetchPathReport{},
		"pairing":         &bench.PairingReport{},
	}
	if len(reports) != len(artifacts) {
		t.Fatalf("%d report types for %d artifacts", len(reports), len(artifacts))
	}
	params := pairing.Default()
	for mode, file := range artifacts {
		report, ok := reports[mode]
		if !ok {
			t.Fatalf("no report type for mode %q", mode)
		}
		raw, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(report); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var h bench.Header
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if h.GOMAXPROCS < 1 {
			t.Fatalf("%s: gomaxprocs %d", file, h.GOMAXPROCS)
		}
		if h.RBits != params.R.BitLen() || h.QBits != params.Q.BitLen() {
			t.Fatalf("%s: |r|=%d |q|=%d, default parameters have %d and %d: regenerate it",
				file, h.RBits, h.QBits, params.R.BitLen(), params.Q.BitLen())
		}
	}

	raw, err := os.ReadFile(filepath.Join(root, "results", "benchrun.txt"))
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(raw), "\n")
	var rBits, qBits int
	if _, err := fmt.Sscanf(first, "maacs-bench: |r|=%d bits, |q|=%d bits,", &rBits, &qBits); err != nil {
		t.Fatalf("results/benchrun.txt: first line %q: %v", first, err)
	}
	if rBits != params.R.BitLen() || qBits != params.Q.BitLen() {
		t.Fatalf("results/benchrun.txt: |r|=%d |q|=%d, default parameters have %d and %d: regenerate it",
			rBits, qBits, params.R.BitLen(), params.Q.BitLen())
	}

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "BENCH_") && strings.HasSuffix(d.Name(), ".json") &&
			filepath.Dir(path) != root {
			t.Errorf("artifact outside the repository root: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Without -json-dir no mode writes anything, not even to the working
	// directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	modes := make([]string, 0, len(artifacts))
	for mode := range artifacts {
		modes = append(modes, mode)
	}
	var sb strings.Builder
	if err := run([]string{"-fast", "-what", strings.Join(modes, ","), "-trials", "1", "-fixed", "2", "-ciphertexts", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "wrote ") {
		t.Fatalf("run without -json-dir reported a write:\n%s", sb.String())
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("run without -json-dir created %s", e.Name())
	}
}

// TestBenchToolRejectsUnknownMode pins the -what contract: an experiment
// name not on the canonical list must be an error naming the valid set, not
// a silent run-nothing success (the old behaviour). "load" names the
// retired open-loop harness, so a stale script fails loudly.
func TestBenchToolRejectsUnknownMode(t *testing.T) {
	for _, mode := range []string{"walcomit", "load"} {
		var sb strings.Builder
		err := run([]string{"-fast", "-what", "tables," + mode}, &sb)
		if err == nil {
			t.Fatalf("unknown -what mode %q accepted", mode)
		}
		for _, want := range []string{`"` + mode + `"`, "valid:", "walcommit"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		}
	}
}

func TestBenchToolRejectsBadPoints(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fast", "-points", "2,zero"}, &sb); err == nil {
		t.Fatal("bad points accepted")
	}
}
