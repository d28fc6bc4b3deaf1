package bench

import (
	"fmt"
	"io"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// EnginePoint is one measured (attribute count, operation) cell of the
// engine comparison: the same work run on the inline serial path
// (workers=1) and on the pool at its default width.
type EnginePoint struct {
	// Attrs is the number of policy rows / attributes involved.
	Attrs int `json:"attrs"`
	// Op is "encrypt", "decrypt" or "reencrypt".
	Op string `json:"op"`
	// SerialNs and ParallelNs are the best-of-trials wall times.
	SerialNs   int64 `json:"serial_ns"`
	ParallelNs int64 `json:"parallel_ns"`
	// Speedup is SerialNs / ParallelNs.
	Speedup float64 `json:"speedup"`
}

// EngineReport is the machine-readable result of MeasureEngine, written to
// BENCH_engine.json. GOMAXPROCS is recorded because the speedups only mean
// something relative to it: on a single-core host the pool degrades to the
// serial path and speedups hover around 1.0 by construction.
type EngineReport struct {
	Header
	Workers     int           `json:"workers"`
	Trials      int           `json:"trials"`
	Ciphertexts int           `json:"reencrypt_ciphertexts"`
	Points      []EnginePoint `json:"points"`
}

// timeBest runs f trials times under the given worker count and returns the
// fastest wall time — the standard way to strip scheduler noise from
// single-shot measurements.
func timeBest(workers, trials int, f func() error) (time.Duration, error) {
	restore := engine.SetWorkers(workers)
	defer restore()
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		keepBest(&best, time.Since(start))
	}
	return best, nil
}

// measurePair times f serially (workers=1) and on the default-width pool,
// and appends the resulting point. The two sides alternate trial by trial,
// so a noisy stretch of a shared host lands on both instead of on whichever
// side happened to run during it.
func (r *EngineReport) measurePair(attrs int, op string, trials int, f func() error) error {
	var serial, parallel time.Duration
	for t := 0; t < trials; t++ {
		d, err := timeBest(1, 1, f)
		if err != nil {
			return fmt.Errorf("%s/%d serial: %w", op, attrs, err)
		}
		keepBest(&serial, d)
		if d, err = timeBest(0, 1, f); err != nil {
			return fmt.Errorf("%s/%d parallel: %w", op, attrs, err)
		}
		keepBest(&parallel, d)
	}
	r.Points = append(r.Points, EnginePoint{
		Attrs:      attrs,
		Op:         op,
		SerialNs:   serial.Nanoseconds(),
		ParallelNs: parallel.Nanoseconds(),
		Speedup:    float64(serial.Nanoseconds()) / float64(parallel.Nanoseconds()),
	})
	return nil
}

// reencryptWorkload builds one full revocation scenario: numCTs ciphertexts
// stored on a cloud server, a rekeyed authority, and the owner-side update
// information — everything Server.ReEncrypt consumes. It returns a closure
// that performs the re-encryption once (on fresh clones each call, so it can
// be timed repeatedly).
func reencryptWorkload(cfg Config, numCTs int) (func() error, error) {
	sc, err := setupReencrypt(cfg, numCTs)
	if err != nil {
		return nil, err
	}
	return func() error {
		srv, err := sc.freshServer()
		if err != nil {
			return err
		}
		report, err := srv.ReEncrypt(sc.w.Owner.ID(), []cloud.ReEncryptItem{{UK: sc.uk, UIs: sc.uis}})
		if err != nil {
			return err
		}
		if report.Ciphertexts != numCTs {
			return fmt.Errorf("bench: re-encrypted %d of %d ciphertexts", report.Ciphertexts, numCTs)
		}
		return nil
	}, nil
}

// MeasureEngine produces the serial-vs-parallel comparison behind
// BENCH_engine.json: encryption, decryption (Eq. 1 path) and server-side
// re-encryption at each attribute count, timed on the inline serial path and
// on the engine pool.
func MeasureEngine(params *pairing.Params, rnd io.Reader, attrCounts []int, trials, numCTs int) (*EngineReport, error) {
	report := &EngineReport{
		Header:      newHeader(params),
		Workers:     engine.New(0).Workers(),
		Trials:      trials,
		Ciphertexts: numCTs,
	}
	for _, n := range attrCounts {
		cfg := Config{Params: params, Authorities: 1, AttrsPerAuthority: n, Rnd: rnd}
		w, err := SetupOurs(cfg)
		if err != nil {
			return nil, fmt.Errorf("engine bench setup n=%d: %w", n, err)
		}
		if err := report.measurePair(n, "encrypt", trials, func() error {
			_, _, err := w.Encrypt()
			return err
		}); err != nil {
			return nil, err
		}
		ct, _, err := w.Encrypt()
		if err != nil {
			return nil, err
		}
		if err := report.measurePair(n, "decrypt", trials, func() error {
			_, err := w.Decrypt(ct)
			return err
		}); err != nil {
			return nil, err
		}
		reenc, err := reencryptWorkload(cfg, numCTs)
		if err != nil {
			return nil, fmt.Errorf("engine bench reencrypt n=%d: %w", n, err)
		}
		if err := report.measurePair(n, "reencrypt", trials, reenc); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// Render prints a human-readable table of the report.
func (r *EngineReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Engine serial vs parallel — GOMAXPROCS=%d, workers=%d, |r|=%d bits (%d trials, best-of)\n",
		r.GOMAXPROCS, r.Workers, r.RBits, r.Trials)
	fmt.Fprintf(w, "%6s %-10s %14s %14s %8s\n", "attrs", "op", "serial", "parallel", "speedup")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%6d %-10s %14s %14s %7.2fx\n",
			pt.Attrs, pt.Op,
			time.Duration(pt.SerialNs), time.Duration(pt.ParallelNs), pt.Speedup)
	}
}
