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
//	maacs-bench -what shardiso      # cross-owner fetch latency, mem vs sharded
//	maacs-bench -what walcommit     # durable put throughput + fsyncs/op vs writers
//	maacs-bench -what load          # open-loop load vs a live server, both transports
//	maacs-bench -what load -load-mix fetch=60,fetch_component=30,store=5,delete=3,reencrypt=1,revoke=1
//	maacs-bench -what fetchpath     # cached vs uncached serving cost of the read path
//	maacs-bench -points 2,5,8 -trials 3
//	maacs-bench -fast               # small test curve (CI smoke run)
//	maacs-bench -csv dir            # also write CSV series into dir
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
	"maacs/internal/pairing"
)

// benchModes is the canonical list of experiments -what accepts. A mode not
// on this list is an error, not a silent no-op: the old behaviour of
// ignoring unknown names let typos (and stale scripts naming removed
// experiments) report success while running nothing.
var benchModes = []string{
	"tables", "fig3", "fig4", "revocation", "ablation", "scale", "engine",
	"reencrypt-batch", "shardiso", "walcommit", "pairing", "load", "fetchpath",
}

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
	engineJSON := fs.String("engine-json", "BENCH_engine.json", "output path for the engine serial-vs-parallel report")
	reencryptJSON := fs.String("reencrypt-json", "BENCH_reencrypt.json", "output path for the batched re-encryption report")
	batchWindow := fs.Int("batch-window", 4, "window size for the windowed re-encryption submissions (0 = unwindowed)")
	shardisoJSON := fs.String("shardiso-json", "BENCH_shardiso.json", "output path for the shard-isolation report")
	shards := fs.Int("shards", 4, "shard count for the shard-isolation experiment")
	pairingJSON := fs.String("pairing-json", "BENCH_pairing.json", "output path for the two-kernel pairing report (montgomery/reference)")
	walcommitJSON := fs.String("walcommit-json", "BENCH_walcommit.json", "output path for the WAL group-commit report")
	walOps := fs.Int("wal-ops", 256, "durable puts per writer in the WAL group-commit experiment")
	walSegment := fs.Int64("wal-segment-bytes", 256<<10, "WAL segment rotation threshold during the group-commit experiment")
	loadJSON := fs.String("load-json", "BENCH_load.json", "output path for the open-loop load report")
	loadDuration := fs.Duration("load-duration", 2*time.Second, "driving time per load point")
	loadRates := fs.String("load-rates", "25,50,100,200", "offered rates (ops/sec) of the load saturation sweep")
	loadOwners := fs.Int("load-owners", 4, "simulated data owners in the load population")
	loadUsers := fs.Int("load-users", 8, "simulated users in the load population")
	loadRecords := fs.Int("load-records", 6, "durable records per owner in the load population")
	loadTransports := fs.String("load-transports", "rpc,http", "transports the load sweep drives")
	loadProcs := fs.String("load-procs", "", "GOMAXPROCS values to sweep at the highest load rate (empty = skip)")
	loadMix := fs.String("load-mix", "", "op mix for the load sweep as op=weight pairs (empty = built-in default mix)")
	fetchpathJSON := fs.String("fetchpath-json", "BENCH_fetchpath.json", "output path for the cached-vs-uncached read-path report")
	fetchpathIters := fs.Int("fetchpath-iters", 0, "timed iterations per fetchpath row (0 = built-in default)")
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

	runSweep := func(name string, sweep func(bench.SweepSpec, bool) (*bench.Series, *bench.Series, error)) error {
		enc, dec, err := sweep(spec, true)
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
		if err := ablation(out, params, *fixed); err != nil {
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
		report.Render(out)
		f, err := os.Create(*engineJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *engineJSON)
	}

	if want["reencrypt-batch"] {
		report, err := bench.MeasureReEncryptBatch(params, rand.Reader, []int{2, 4, 8, 16}, *fixed, *trials, *batchWindow)
		if err != nil {
			return fmt.Errorf("reencrypt-batch: %w", err)
		}
		report.Render(out)
		f, err := os.Create(*reencryptJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *reencryptJSON)
	}

	if want["shardiso"] {
		report, err := bench.MeasureShardIsolation(params, rand.Reader, *ciphertexts, *shards, *trials)
		if err != nil {
			return fmt.Errorf("shardiso: %w", err)
		}
		report.Render(out)
		f, err := os.Create(*shardisoJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *shardisoJSON)
	}

	if want["walcommit"] {
		dir, err := os.MkdirTemp("", "maacs-walcommit-")
		if err != nil {
			return err
		}
		report, err := bench.MeasureWALCommit(params, rand.Reader, dir, *walOps, *walSegment, []int{1, 4, 16})
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("walcommit: %w", err)
		}
		report.Render(out)
		f, err := os.Create(*walcommitJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *walcommitJSON)
	}

	if want["load"] {
		rates, err := parseRates(*loadRates)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		var procs []int
		if *loadProcs != "" {
			if procs, err = parsePoints(*loadProcs); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
		var transports []string
		for _, tr := range strings.Split(*loadTransports, ",") {
			if tr = strings.TrimSpace(tr); tr != "" {
				transports = append(transports, tr)
			}
		}
		mix, err := parseLoadMix(*loadMix)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		report, err := bench.MeasureLoad(bench.LoadSpec{
			Params:          params,
			Rnd:             rand.Reader,
			Owners:          *loadOwners,
			Users:           *loadUsers,
			RecordsPerOwner: *loadRecords,
			Duration:        *loadDuration,
			Rates:           rates,
			Transports:      transports,
			Procs:           procs,
			Window:          *batchWindow,
			Mix:             mix,
		})
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		report.Render(out)
		f, err := os.Create(*loadJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *loadJSON)
	}

	if want["fetchpath"] {
		report, err := bench.MeasureFetchPath(bench.FetchPathSpec{
			Params:          params,
			Rnd:             rand.Reader,
			Owners:          *loadOwners,
			RecordsPerOwner: *loadRecords,
			Iters:           *fetchpathIters,
		})
		if err != nil {
			return fmt.Errorf("fetchpath: %w", err)
		}
		report.Render(out)
		f, err := os.Create(*fetchpathJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *fetchpathJSON)
	}

	if want["pairing"] {
		report, err := bench.MeasurePairing(params, rand.Reader, *fixed, *trials)
		if err != nil {
			return fmt.Errorf("pairing: %w", err)
		}
		report.Render(out)
		f, err := os.Create(*pairingJSON)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n\n", *pairingJSON)
	}
	return nil
}

func sweepFig3(spec bench.SweepSpec, _ bool) (*bench.Series, *bench.Series, error) {
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

func sweepFig4(spec bench.SweepSpec, _ bool) (*bench.Series, *bench.Series, error) {
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

// ablation compares the faithful Eq. 1 decryption against the aggregated
// 3-pairing DecryptFast extension.
func ablation(out io.Writer, params *pairing.Params, n int) error {
	cfg := bench.Config{Params: params, Authorities: n, AttrsPerAuthority: n, Rnd: rand.Reader}
	w, err := bench.SetupOurs(cfg)
	if err != nil {
		return err
	}
	ct, _, err := w.Encrypt()
	if err != nil {
		return err
	}
	slow, err := w.Decrypt(ct)
	if err != nil {
		return err
	}
	prepared, err := w.DecryptPrepared(ct)
	if err != nil {
		return err
	}
	fast, err := w.DecryptFast(ct)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Ablation — decryption with n_A=%d, n_k=%d (l=%d)\n", n, n, n*n)
	fmt.Fprintf(out, "%-46s %14s\n", "Eq. 1 as printed (2l+n_A pairings)", slow)
	fmt.Fprintf(out, "%-46s %14s %6.1fx\n", "Eq. 1 + pairing_pp preprocessing (extension)", prepared, float64(slow)/float64(prepared))
	fmt.Fprintf(out, "%-46s %14s %6.1fx\n", "aggregated multi-pairing (2 Millers, extension)", fast, float64(slow)/float64(fast))
	fmt.Fprintln(out)
	return nil
}

// parseLoadMix parses "fetch=60,store=5,..." into a bench.LoadMix. An empty
// string means the built-in default mix; weight validation (unknown ops,
// negatives) happens inside the load harness.
func parseLoadMix(s string) (bench.LoadMix, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	mix := make(bench.LoadMix)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, weight, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -load-mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(weight))
		if err != nil {
			return nil, fmt.Errorf("bad -load-mix weight %q", part)
		}
		mix[strings.TrimSpace(op)] = w
	}
	return mix, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad offered rate %q", part)
		}
		out = append(out, v)
	}
	return out, nil
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
