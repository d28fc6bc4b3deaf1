package bench

import (
	"fmt"
	"io"
	"testing"
	"time"

	"maacs/internal/pairing"
)

// PairingPoint is one measured group operation: the fixed-width Montgomery
// implementation and its affine math/big reference function, run on the
// same Params and operands.
type PairingPoint struct {
	// Op names the operation: "pair" (Pair vs PairReference), "g-exp"
	// (G.Exp vs G.ExpReference), "gt-exp" (GT.Exp vs GT.ExpReference) or
	// "g-decode" (UnmarshalG vs UnmarshalGReference).
	Op string `json:"op"`
	// Reps is the number of back-to-back executions inside one timed trial;
	// the recorded times are already divided down to per-operation cost.
	Reps int `json:"reps"`
	// MontgomeryNs and ReferenceNs are best-of-trials per-op wall times of
	// the fast operation and of its reference.
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
// to BENCH_pairing.json. Every row runs single-threaded, so the speedups
// are pure arithmetic, not parallelism.
type PairingReport struct {
	Header
	Trials int `json:"trials"`
	// Fields are the base/extension-field primitive rows; Points are the
	// group-operation rows.
	Fields []FieldPoint   `json:"fields"`
	Points []PairingPoint `json:"points"`
}

// timeBestPerOp runs op reps times per trial, trials times, and returns
// the fastest per-operation wall time.
func timeBestPerOp(trials, reps int, op func()) time.Duration {
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		keepBest(&best, time.Since(start))
	}
	return best / time.Duration(reps)
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
func (r *PairingReport) measureFields(p *pairing.Params) {
	for _, op := range p.FieldBench() {
		// Both columns share one rep count (sized by the slower closure) so
		// the per-op times divide identically.
		reps := calibrateFieldReps(op.Montgomery)
		if bi := calibrateFieldReps(op.BigInt); bi < reps {
			reps = bi
		}
		m := timeBestPerOp(r.Trials, reps, op.Montgomery)
		bi := timeBestPerOp(r.Trials, reps, op.BigInt)
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
}

// MeasurePairing produces the comparison behind BENCH_pairing.json: the
// field primitives (Montgomery limbs vs math/big), then each group
// operation against its reference function on the same Params — Pair vs
// PairReference, G.Exp vs G.ExpReference, GT.Exp vs GT.ExpReference, and
// UnmarshalG vs UnmarshalGReference on one encoding of an element of G.
func MeasurePairing(params *pairing.Params, rnd io.Reader, trials int) (*PairingReport, error) {
	report := &PairingReport{
		Header: newHeader(params),
		Trials: trials,
	}
	report.measureFields(params)
	ka, err := params.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	kb, err := params.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	g := params.Generator()
	ga, gb := g.Exp(ka), g.Exp(kb)
	e := params.GTGenerator()
	enc := ga.Marshal()
	rows := []struct {
		op        string
		reps      int
		fast, ref func()
	}{
		{"pair", 2, func() { params.MustPair(ga, gb) }, func() { params.PairReference(ga, gb) }},
		{"g-exp", 8, func() { g.Exp(ka) }, func() { g.ExpReference(ka) }},
		{"gt-exp", 8, func() { e.Exp(kb) }, func() { e.ExpReference(kb) }},
		{"g-decode", 8, func() { params.UnmarshalG(enc) }, func() { params.UnmarshalGReference(enc) }},
	}
	for _, row := range rows {
		m := timeBestPerOp(trials, row.reps, row.fast)
		rf := timeBestPerOp(trials, row.reps, row.ref)
		report.Points = append(report.Points, PairingPoint{
			Op:           row.op,
			Reps:         row.reps,
			MontgomeryNs: m.Nanoseconds(),
			ReferenceNs:  rf.Nanoseconds(),
			Speedup:      float64(rf.Nanoseconds()) / float64(m.Nanoseconds()),
		})
	}
	return report, nil
}

// Render prints a human-readable table of the report.
func (r *PairingReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Pairing kernel montgomery vs reference — GOMAXPROCS=%d, |r|=%d, |q|=%d bits (%d trials, best-of, single-threaded)\n",
		r.GOMAXPROCS, r.RBits, r.QBits, r.Trials)
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
