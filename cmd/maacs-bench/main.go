// Command maacs-bench regenerates the paper's evaluation (Section VI):
// Tables I–IV and the four series of Figures 3 and 4, plus the revocation
// comparison and the decrypt-aggregation ablation.
//
// Usage:
//
//	maacs-bench                     # everything, paper-scale parameters
//	maacs-bench -what tables        # only Tables I–IV
//	maacs-bench -what fig3,fig4     # only the timing figures
//	maacs-bench -what revocation    # only the revocation experiment
//	maacs-bench -what reencrypt-batch  # per-ciphertext vs batched submission
//	maacs-bench -what walcommit     # durable put throughput + fsyncs/op vs writers
//	maacs-bench -what fetchpath     # render cost of each fetch representation
//	maacs-bench -what engine -trials 8 -json-dir .  # rewrite BENCH_engine.json here
//	maacs-bench -points 2,5,8 -trials 3
//	maacs-bench -fast               # small test curve (CI smoke run)
//	maacs-bench -csv dir            # also write CSV series into dir
//
// The engine, reencrypt-batch, walcommit, fetchpath and pairing modes
// report JSON as well; -json-dir names the directory their BENCH_*.json
// files go to, and without it no JSON is written.
//
// Absolute times depend on the host; the paper's claims are about shapes
// (who wins, linear growth), which the tool checks and reports explicitly.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"maacs/internal/bench"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

// benchModes is the canonical list of experiments -what accepts. A mode not
// on this list is an error, not a silent no-op: the old behaviour of
// ignoring unknown names let typos (and stale scripts naming removed
// experiments) report success while running nothing.
var benchModes = []string{
	"tables", "fig3", "fig4", "revocation", "ablation", "scale", "engine",
	"reencrypt-batch", "walcommit", "pairing", "fetchpath",
}

// artifacts maps each mode that reports JSON to its file name under
// -json-dir. The committed copies sit at the repository root.
var artifacts = map[string]string{
	"engine":          "BENCH_engine.json",
	"reencrypt-batch": "BENCH_reencrypt.json",
	"walcommit":       "BENCH_walcommit.json",
	"fetchpath":       "BENCH_fetchpath.json",
	"pairing":         "BENCH_pairing.json",
}

// Settings of the JSON-reporting experiments: the server re-encryption
// window of the windowed reencrypt-batch submissions, and the durable puts
// per writer and WAL segment rotation threshold of walcommit.
const (
	batchWindow     = 4
	walOpsPerWriter = 256
	walSegmentBytes = 256 << 10
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maacs-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("maacs-bench", flag.ContinueOnError)
	what := fs.String("what", strings.Join(benchModes, ","), "comma-separated experiments to run")
	points := fs.String("points", "2,5,8,11,14,17,20", "sweep values for the figures (paper: 2..20)")
	fixed := fs.Int("fixed", 5, "value of the non-swept axis (paper: 5)")
	trials := fs.Int("trials", 2, "trials per sweep point (paper: 20)")
	ciphertexts := fs.Int("ciphertexts", 4, "stored ciphertexts in the revocation experiment")
	fast := fs.Bool("fast", false, "use the small test curve instead of paper-scale parameters")
	csvDir := fs.String("csv", "", "directory to write CSV series into (optional)")
	jsonDir := fs.String("json-dir", "", "directory to write the BENCH_*.json reports into (empty = write none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := pairing.Default()
	if *fast {
		params = pairing.Test()
	}
	xs, err := parsePoints(*points)
	if err != nil {
		return err
	}
	spec := bench.SweepSpec{Params: params, Rnd: rand.Reader, Xs: xs, Fixed: *fixed, Trials: *trials}
	valid := make(map[string]bool, len(benchModes))
	for _, m := range benchModes {
		valid[m] = true
	}
	want := make(map[string]bool)
	for _, w := range strings.Split(*what, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if !valid[w] {
			return fmt.Errorf("unknown -what %q (valid: %s)", w, strings.Join(benchModes, ", "))
		}
		want[w] = true
	}

	fmt.Fprintf(out, "maacs-bench: |r|=%d bits, |q|=%d bits, points=%v, fixed=%d, trials=%d\n\n",
		params.R.BitLen(), params.Q.BitLen(), xs, *fixed, *trials)

	if want["tables"] {
		cfg := bench.Config{Params: params, Authorities: *fixed, AttrsPerAuthority: *fixed, Rnd: rand.Reader}
		report, err := bench.MeasureSizes(cfg)
		if err != nil {
			return fmt.Errorf("tables: %w", err)
		}
		fmt.Fprintln(out, report.RenderAll())
		_, verdicts := report.CheckSizeShapes()
		for _, v := range verdicts {
			fmt.Fprintln(out, "  shape:", v)
		}
		fmt.Fprintln(out)
		acct, err := bench.LiveTable4(cfg)
		if err != nil {
			return fmt.Errorf("live table 4: %w", err)
		}
		bench.RenderLiveTable4(out, acct, cfg)
		fmt.Fprintln(out)
	}

	runSweep := func(name string, sweep func(bench.SweepSpec) (*bench.Series, *bench.Series, error)) error {
		enc, dec, err := sweep(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, s := range []*bench.Series{enc, dec} {
			s.Render(out)
			op := bench.OpEncrypt
			if s == dec {
				op = bench.OpDecrypt
			}
			_, verdict := s.CheckShape(op)
			fmt.Fprintln(out, "  shape:", verdict)
			fmt.Fprintln(out)
			s.Plot(out, 12)
			fmt.Fprintln(out)
			if *csvDir != "" {
				path := filepath.Join(*csvDir, s.Name+".csv")
				if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "  wrote %s\n", path)
			}
		}
		return nil
	}

	if want["fig3"] {
		if err := runSweep("fig3", sweepFig3); err != nil {
			return err
		}
	}
	if want["fig4"] {
		if err := runSweep("fig4", sweepFig4); err != nil {
			return err
		}
	}

	if want["revocation"] {
		cfg := bench.Config{Params: params, Authorities: 2, AttrsPerAuthority: *fixed, Rnd: rand.Reader}
		res, err := bench.MeasureRevocation(cfg, *ciphertexts)
		if err != nil {
			return fmt.Errorf("revocation: %w", err)
		}
		res.Render(out)
		_, verdict := res.CheckShape()
		fmt.Fprintln(out, "  shape:", verdict)
		fmt.Fprintln(out)
	}

	if want["ablation"] {
		if err := ablation(out, params, *fixed, *trials); err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
	}

	if want["scale"] {
		points := bench.ScaleSweep(params, []int{8, 64, 512, 4096, 32768}, *fixed)
		bench.RenderScale(out, points, *fixed)
		fmt.Fprintln(out)
	}

	if want["engine"] {
		report, err := bench.MeasureEngine(params, rand.Reader, []int{2, 4, 6, 8, 10}, *trials, *ciphertexts*2)
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		if err := writeReport(out, *jsonDir, "engine", report); err != nil {
			return err
		}
	}

	if want["reencrypt-batch"] {
		report, err := bench.MeasureReEncryptBatch(params, rand.Reader, []int{2, 4, 8, 16}, *fixed, *trials, batchWindow)
		if err != nil {
			return fmt.Errorf("reencrypt-batch: %w", err)
		}
		if err := writeReport(out, *jsonDir, "reencrypt-batch", report); err != nil {
			return err
		}
	}

	if want["walcommit"] {
		dir, err := os.MkdirTemp("", "maacs-walcommit-")
		if err != nil {
			return err
		}
		report, err := bench.MeasureWALCommit(params, rand.Reader, dir, walOpsPerWriter, walSegmentBytes, []int{1, 4, 16})
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("walcommit: %w", err)
		}
		if err := writeReport(out, *jsonDir, "walcommit", report); err != nil {
			return err
		}
	}

	if want["fetchpath"] {
		report, err := bench.MeasureFetchPath(bench.FetchPathSpec{Params: params, Rnd: rand.Reader})
		if err != nil {
			return fmt.Errorf("fetchpath: %w", err)
		}
		if err := writeReport(out, *jsonDir, "fetchpath", report); err != nil {
			return err
		}
	}

	if want["pairing"] {
		report, err := bench.MeasurePairing(params, rand.Reader, *trials)
		if err != nil {
			return fmt.Errorf("pairing: %w", err)
		}
		if err := writeReport(out, *jsonDir, "pairing", report); err != nil {
			return err
		}
	}
	return nil
}

// writeReport prints report and, when dir is set, writes it as JSON to the
// mode's artifact file in dir.
func writeReport(out io.Writer, dir, mode string, report interface{ Render(io.Writer) }) error {
	report.Render(out)
	if dir == "" {
		fmt.Fprintln(out)
		return nil
	}
	path := filepath.Join(dir, artifacts[mode])
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, report); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "  wrote %s\n\n", path)
	return nil
}

func sweepFig3(spec bench.SweepSpec) (*bench.Series, *bench.Series, error) {
	enc, err := bench.SweepAuthorities(spec, bench.OpEncrypt)
	if err != nil {
		return nil, nil, err
	}
	dec, err := bench.SweepAuthorities(spec, bench.OpDecrypt)
	if err != nil {
		return nil, nil, err
	}
	return enc, dec, nil
}

func sweepFig4(spec bench.SweepSpec) (*bench.Series, *bench.Series, error) {
	enc, err := bench.SweepAttrs(spec, bench.OpEncrypt)
	if err != nil {
		return nil, nil, err
	}
	dec, err := bench.SweepAttrs(spec, bench.OpDecrypt)
	if err != nil {
		return nil, nil, err
	}
	return enc, dec, nil
}

// ablation compares the faithful Eq. 1 decryption the figures time with
// core.Decrypt, the path users run: one untimed warm-up call of each (which
// also prepares the user's PK_UID for Decrypt), then the best of trials.
func ablation(out io.Writer, params *pairing.Params, n, trials int) error {
	cfg := bench.Config{Params: params, Authorities: n, AttrsPerAuthority: n, Rnd: rand.Reader}
	w, err := bench.SetupOurs(cfg)
	if err != nil {
		return err
	}
	ct, _, err := w.Encrypt()
	if err != nil {
		return err
	}
	trials = max(trials, 1)
	best := func(decrypt func(*core.Ciphertext) (time.Duration, error)) (time.Duration, error) {
		if _, err := decrypt(ct); err != nil { // warm-up
			return 0, err
		}
		var d time.Duration
		for t := 0; t < trials; t++ {
			took, err := decrypt(ct)
			if err != nil {
				return 0, err
			}
			if d == 0 || took < d {
				d = took
			}
		}
		return d, nil
	}
	slow, err := best(w.Decrypt)
	if err != nil {
		return err
	}
	fast, err := best(w.DecryptAggregated)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Ablation — decryption with n_A=%d, n_k=%d (l=%d), best of %d after a warm-up\n", n, n, n*n, trials)
	fmt.Fprintf(out, "%-46s %14s\n", "Eq. 1 as printed (2l+n_A pairings)", slow)
	fmt.Fprintf(out, "%-46s %14s %6.1fx\n", "Decrypt (multi-exps + prepared 2-loop product)", fast, float64(slow)/float64(fast))
	fmt.Fprintln(out)
	return nil
}

func parsePoints(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad sweep point %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
