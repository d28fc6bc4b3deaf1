package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"maacs/internal/engine"
	"maacs/internal/pairing"
	"maacs/internal/waters"
)

// PairingPoint is one measured operation of the pairing-kernel comparison:
// the same work run on the fixed-width Montgomery kernel and on the
// retained affine/naive reference.
type PairingPoint struct {
	// Op names the operation: "pair", "prepared-pair", "prepare", "g-exp",
	// "gt-exp", a per-scheme "encrypt"/"encrypt-lewko"/"encrypt-waters",
	// or "decrypt".
	Op string `json:"op"`
	// Reps is the number of back-to-back executions inside one timed trial;
	// the recorded times are already divided down to per-operation cost.
	Reps int `json:"reps"`
	// MontgomeryNs and ReferenceNs are best-of-trials per-op wall times for
	// the two kernels.
	MontgomeryNs int64 `json:"montgomery_ns"`
	ReferenceNs  int64 `json:"reference_ns"`
	// Speedup is ReferenceNs / MontgomeryNs.
	Speedup float64 `json:"speedup"`
}

// FieldPoint is one field-primitive row: the innermost arithmetic the
// Miller loop is built from, timed on the fixed-width Montgomery limbs and
// on math/big, with heap allocations per operation for each.
type FieldPoint struct {
	// Op names the primitive: "fp-mul", "fp-square", "fp-inv", "fp2-mul".
	Op string `json:"op"`
	// Reps is the number of executions inside one timed trial.
	Reps         int   `json:"reps"`
	MontgomeryNs int64 `json:"montgomery_ns"`
	BigIntNs     int64 `json:"bigint_ns"`
	// Speedup is BigIntNs / MontgomeryNs.
	Speedup float64 `json:"speedup"`
	// MontgomeryAllocs and BigIntAllocs are heap allocations per operation
	// (testing.AllocsPerRun). The Montgomery column must be zero.
	MontgomeryAllocs float64 `json:"montgomery_allocs"`
	BigIntAllocs     float64 `json:"bigint_allocs"`
}

// PairingReport is the machine-readable result of MeasurePairing, written
// to BENCH_pairing.json. All kernels run single-threaded (the engine pool
// is pinned to one worker for the scheme-level rows), so the speedups are
// pure kernel arithmetic, not parallelism.
type PairingReport struct {
	Header
	Trials int `json:"trials"`
	Attrs  int `json:"attrs"`
	// Fields are the base/extension-field primitive rows; Points are the
	// group-operation and whole-scheme rows.
	Fields []FieldPoint   `json:"fields"`
	Points []PairingPoint `json:"points"`
}

// timeBestPerOp runs f (which performs reps operations) trials times and
// returns the fastest per-operation wall time.
func timeBestPerOp(trials, reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		keepBest(&best, time.Since(start))
	}
	return best / time.Duration(reps), nil
}

// measureKernels times the op on both kernels and appends the point. mont
// and ref are closures bound to per-kernel Params clones.
func (r *PairingReport) measureKernels(op string, reps int, mont, ref func() error) error {
	m, err := timeBestPerOp(r.Trials, reps, mont)
	if err != nil {
		return fmt.Errorf("%s montgomery: %w", op, err)
	}
	rf, err := timeBestPerOp(r.Trials, reps, ref)
	if err != nil {
		return fmt.Errorf("%s reference: %w", op, err)
	}
	r.Points = append(r.Points, PairingPoint{
		Op:           op,
		Reps:         reps,
		MontgomeryNs: m.Nanoseconds(),
		ReferenceNs:  rf.Nanoseconds(),
		Speedup:      float64(rf.Nanoseconds()) / float64(m.Nanoseconds()),
	})
	return nil
}

// minFieldReps floors every field row: fewer iterations than this cannot
// resolve per-op costs above timer noise (the old fixed reps=8 for fp-inv
// could not have detected the 6× EGCD regression it was meant to watch).
const minFieldReps = 200

// calibrateFieldReps sizes a row's per-trial batch from the measured cost
// of one iteration: cheap ops get large batches to amortize timer
// granularity, expensive ops get smaller ones to bound total runtime, and
// no op ever gets fewer than minFieldReps.
func calibrateFieldReps(f func()) int {
	const probe = 8
	start := time.Now()
	for i := 0; i < probe; i++ {
		f()
	}
	per := time.Since(start) / probe
	if per <= 0 {
		per = time.Nanosecond
	}
	reps := int(2 * time.Millisecond / per)
	if reps < minFieldReps {
		reps = minFieldReps
	}
	if reps > 4000 {
		reps = 4000
	}
	return reps
}

// measureFields builds the field-primitive rows from the pairing package's
// exported closures.
func (r *PairingReport) measureFields(p *pairing.Params) error {
	for _, op := range p.FieldBench() {
		// Both columns share one rep count (sized by the slower closure) so
		// the per-op times divide identically.
		reps := calibrateFieldReps(op.Montgomery)
		if bi := calibrateFieldReps(op.BigInt); bi < reps {
			reps = bi
		}
		repeat := func(f func()) func() error {
			return func() error {
				for i := 0; i < reps; i++ {
					f()
				}
				return nil
			}
		}
		m, err := timeBestPerOp(r.Trials, reps, repeat(op.Montgomery))
		if err != nil {
			return err
		}
		bi, err := timeBestPerOp(r.Trials, reps, repeat(op.BigInt))
		if err != nil {
			return err
		}
		r.Fields = append(r.Fields, FieldPoint{
			Op:               op.Name,
			Reps:             reps,
			MontgomeryNs:     m.Nanoseconds(),
			BigIntNs:         bi.Nanoseconds(),
			Speedup:          float64(bi.Nanoseconds()) / float64(m.Nanoseconds()),
			MontgomeryAllocs: testing.AllocsPerRun(100, op.Montgomery),
			BigIntAllocs:     testing.AllocsPerRun(100, op.BigInt),
		})
	}
	return nil
}

// kernelClone builds an independent Params with the same constants as p and
// the requested kernel, so flipping the kernel never mutates shared state.
func kernelClone(p *pairing.Params, k pairing.Kernel) (*pairing.Params, error) {
	q, r, h, gx, gy := p.Export()
	c, err := pairing.NewParams(q, r, h, gx, gy)
	if err != nil {
		return nil, err
	}
	c.SetKernel(k)
	return c, nil
}

// MeasurePairing produces the two-kernel comparison behind
// BENCH_pairing.json: the field primitives (Montgomery limbs vs math/big),
// the pairing primitives head-to-head on the Montgomery and reference
// kernels, then a whole-scheme encrypt/decrypt at the given
// attribute count with every group operation routed through each kernel.
// attrs is split as one authority with attrs attributes.
func MeasurePairing(params *pairing.Params, rnd io.Reader, attrs, trials int) (*PairingReport, error) {
	report := &PairingReport{
		Header: newHeader(params),
		Trials: trials,
		Attrs:  attrs,
	}
	mont, err := kernelClone(params, pairing.KernelMontgomery)
	if err != nil {
		return nil, err
	}
	ref, err := kernelClone(params, pairing.KernelReference)
	if err != nil {
		return nil, err
	}

	if err := report.measureFields(mont); err != nil {
		return nil, err
	}

	// Primitive rows. Each kernel gets its own elements so results stay
	// comparable without cross-Params mixing.
	type prim struct {
		op   string
		reps int
		mk   func(p *pairing.Params) (func() error, error)
	}
	prims := []prim{
		{"pair", 2, func(p *pairing.Params) (func() error, error) {
			ka, err := p.RandomScalar(rnd)
			if err != nil {
				return nil, err
			}
			kb, err := p.RandomScalar(rnd)
			if err != nil {
				return nil, err
			}
			ga, gb := p.Generator().Exp(ka), p.Generator().Exp(kb)
			return func() error {
				for i := 0; i < 2; i++ {
					p.MustPair(ga, gb)
				}
				return nil
			}, nil
		}},
		{"prepare", 2, func(p *pairing.Params) (func() error, error) {
			g := p.Generator()
			return func() error {
				for i := 0; i < 2; i++ {
					p.Prepare(g)
				}
				return nil
			}, nil
		}},
		{"prepared-pair", 4, func(p *pairing.Params) (func() error, error) {
			pre := p.Prepare(p.Generator())
			k, err := p.RandomScalar(rnd)
			if err != nil {
				return nil, err
			}
			q := p.Generator().Exp(k)
			return func() error {
				for i := 0; i < 4; i++ {
					if _, err := pre.Pair(q); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
		{"g-exp", 8, func(p *pairing.Params) (func() error, error) {
			k, err := p.RandomScalar(rnd)
			if err != nil {
				return nil, err
			}
			g := p.Generator()
			return func() error {
				for i := 0; i < 8; i++ {
					g.Exp(k)
				}
				return nil
			}, nil
		}},
		{"gt-exp", 8, func(p *pairing.Params) (func() error, error) {
			e := p.GTGenerator()
			k, err := p.RandomScalar(rnd)
			if err != nil {
				return nil, err
			}
			return func() error {
				for i := 0; i < 8; i++ {
					e.Exp(k)
				}
				return nil
			}, nil
		}},
	}
	for _, pr := range prims {
		fMont, err := pr.mk(mont)
		if err != nil {
			return nil, err
		}
		fRef, err := pr.mk(ref)
		if err != nil {
			return nil, err
		}
		if err := report.measureKernels(pr.op, pr.reps, fMont, fRef); err != nil {
			return nil, err
		}
	}

	// Whole-scheme rows: the same workload point built once per kernel, with
	// the engine pool pinned to one worker so the comparison stays
	// single-threaded.
	restore := engine.SetWorkers(1)
	defer restore()
	mkScheme := func(p *pairing.Params) (func() error, func() error, error) {
		w, err := SetupOurs(Config{Params: p, Authorities: 1, AttrsPerAuthority: attrs, Rnd: rnd})
		if err != nil {
			return nil, nil, err
		}
		ct, _, err := w.Encrypt()
		if err != nil {
			return nil, nil, err
		}
		enc := func() error {
			_, _, err := w.Encrypt()
			return err
		}
		dec := func() error {
			_, err := w.Decrypt(ct)
			return err
		}
		return enc, dec, nil
	}
	encMont, decMont, err := mkScheme(mont)
	if err != nil {
		return nil, fmt.Errorf("pairing bench setup montgomery: %w", err)
	}
	encRef, decRef, err := mkScheme(ref)
	if err != nil {
		return nil, fmt.Errorf("pairing bench setup reference: %w", err)
	}
	if err := report.measureKernels("encrypt", 1, encMont, encRef); err != nil {
		return nil, err
	}
	if err := report.measureKernels("decrypt", 1, decMont, decRef); err != nil {
		return nil, err
	}

	// Per-scheme encrypt rows: the comparison schemes' encrypt loops run
	// the same per-attribute two-base exponentiations through the engine's
	// table caches, so the headline "encrypt wins" claim is visible for
	// every scheme, not just the paper's.
	mkLewko := func(p *pairing.Params) (func() error, error) {
		w, err := SetupLewko(Config{Params: p, Authorities: 1, AttrsPerAuthority: attrs, Rnd: rnd})
		if err != nil {
			return nil, err
		}
		if _, _, err := w.Encrypt(); err != nil { // warm tables like a live server
			return nil, err
		}
		return func() error {
			_, _, err := w.Encrypt()
			return err
		}, nil
	}
	mkWaters := func(p *pairing.Params) (func() error, error) {
		auth, err := waters.Setup(p, rnd)
		if err != nil {
			return nil, err
		}
		names := attrNames(attrs)
		policy := strings.Join(names, " AND ")
		m, _, err := p.RandomGT(rnd)
		if err != nil {
			return nil, err
		}
		if _, err := waters.Encrypt(auth.PK, m, policy, rnd); err != nil {
			return nil, err
		}
		return func() error {
			_, err := waters.Encrypt(auth.PK, m, policy, rnd)
			return err
		}, nil
	}
	for _, sch := range []struct {
		op string
		mk func(p *pairing.Params) (func() error, error)
	}{{"encrypt-lewko", mkLewko}, {"encrypt-waters", mkWaters}} {
		fMont, err := sch.mk(mont)
		if err != nil {
			return nil, fmt.Errorf("pairing bench setup %s montgomery: %w", sch.op, err)
		}
		fRef, err := sch.mk(ref)
		if err != nil {
			return nil, fmt.Errorf("pairing bench setup %s reference: %w", sch.op, err)
		}
		if err := report.measureKernels(sch.op, 1, fMont, fRef); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// Render prints a human-readable table of the report.
func (r *PairingReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Pairing kernels montgomery vs reference — GOMAXPROCS=%d, |r|=%d, |q|=%d bits, attrs=%d (%d trials, best-of, single-threaded)\n",
		r.GOMAXPROCS, r.RBits, r.QBits, r.Attrs, r.Trials)
	if len(r.Fields) > 0 {
		fmt.Fprintf(w, "%-14s %14s %14s %8s %12s %12s\n",
			"field op", "montgomery", "big.Int", "speedup", "mont allocs", "big allocs")
		for _, f := range r.Fields {
			fmt.Fprintf(w, "%-14s %14s %14s %7.2fx %12.1f %12.1f\n",
				f.Op, time.Duration(f.MontgomeryNs), time.Duration(f.BigIntNs), f.Speedup,
				f.MontgomeryAllocs, f.BigIntAllocs)
		}
	}
	fmt.Fprintf(w, "%-14s %14s %14s %8s\n", "op", "montgomery", "reference", "speedup")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-14s %14s %14s %7.2fx\n",
			pt.Op, time.Duration(pt.MontgomeryNs), time.Duration(pt.ReferenceNs), pt.Speedup)
	}
}
