package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// Point is one x-position of a figure series: the fastest of Trials runs.
// For decryption it also carries the pairings one decryption of each
// scheme ran, counted.
type Point struct {
	X                 int
	Ours, Lewko       time.Duration
	OursOps, LewkoOps pairing.OpCounts
}

// Series is a rendered figure: points along a sweep axis.
type Series struct {
	Name   string
	XLabel string
	Points []Point
}

// SweepSpec drives one figure: which axis is swept, which values, and how
// many trials per point (the paper averaged 20 trials).
type SweepSpec struct {
	Params *pairing.Params
	Rnd    io.Reader
	// Xs are the sweep values (the paper uses 2..20).
	Xs []int
	// Fixed is the value of the non-swept axis (the paper uses 5).
	Fixed int
	// Trials per point; each scheme keeps its fastest trial.
	Trials int
}

type operation int

// The two measured operations.
const (
	OpEncrypt operation = iota + 1
	OpDecrypt
)

// SweepAuthorities produces Fig. 3(a) (op = OpEncrypt) or Fig. 3(b)
// (op = OpDecrypt): time vs number of authorities with attrs/authority
// fixed.
func SweepAuthorities(spec SweepSpec, op operation) (*Series, error) {
	s := &Series{XLabel: "authorities"}
	if op == OpEncrypt {
		s.Name = "Fig3a-encryption-vs-authorities"
	} else {
		s.Name = "Fig3b-decryption-vs-authorities"
	}
	for _, x := range spec.Xs {
		cfg := Config{Params: spec.Params, Authorities: x, AttrsPerAuthority: spec.Fixed, Rnd: spec.Rnd}
		pt, err := measurePoint(cfg, spec.Trials, op)
		if err != nil {
			return nil, fmt.Errorf("sweep authorities x=%d: %w", x, err)
		}
		pt.X = x
		s.Points = append(s.Points, pt)
	}
	return s, nil
}

// SweepAttrs produces Fig. 4(a)/(b): time vs attributes per authority with
// the number of authorities fixed.
func SweepAttrs(spec SweepSpec, op operation) (*Series, error) {
	s := &Series{XLabel: "attrs/authority"}
	if op == OpEncrypt {
		s.Name = "Fig4a-encryption-vs-attrs"
	} else {
		s.Name = "Fig4b-decryption-vs-attrs"
	}
	for _, x := range spec.Xs {
		cfg := Config{Params: spec.Params, Authorities: spec.Fixed, AttrsPerAuthority: x, Rnd: spec.Rnd}
		pt, err := measurePoint(cfg, spec.Trials, op)
		if err != nil {
			return nil, fmt.Errorf("sweep attrs x=%d: %w", x, err)
		}
		pt.X = x
		s.Points = append(s.Points, pt)
	}
	return s, nil
}

// measurePoint runs both schemes at one workload point and keeps each
// scheme's fastest trial. The engine pool is pinned to one worker, so the
// point compares single-threaded operation cost, as the paper's PBC
// measurements did, and neither goroutine hand-offs nor a preempted trial
// reach the figure's verdict.
func measurePoint(cfg Config, trials int, op operation) (Point, error) {
	if trials < 1 {
		trials = 1
	}
	restore := engine.SetWorkers(1)
	defer restore()
	ours, err := SetupOurs(cfg)
	if err != nil {
		return Point{}, err
	}
	lw, err := SetupLewko(cfg)
	if err != nil {
		return Point{}, err
	}
	var pt Point
	for t := 0; t < trials; t++ {
		ct, encD, err := ours.Encrypt()
		if err != nil {
			return Point{}, err
		}
		lct, lEncD, err := lw.Encrypt()
		if err != nil {
			return Point{}, err
		}
		switch op {
		case OpEncrypt:
			keepBest(&pt.Ours, encD)
			keepBest(&pt.Lewko, lEncD)
		case OpDecrypt:
			before := pairing.SnapshotOpCounts()
			decD, err := ours.Decrypt(ct)
			if err != nil {
				return Point{}, err
			}
			mid := pairing.SnapshotOpCounts()
			lDecD, err := lw.Decrypt(lct)
			if err != nil {
				return Point{}, err
			}
			pt.OursOps = mid.Delta(before)
			pt.LewkoOps = pairing.SnapshotOpCounts().Delta(mid)
			keepBest(&pt.Ours, decD)
			keepBest(&pt.Lewko, lDecD)
		}
	}
	return pt, nil
}

// keepBest lowers *best to d when d is faster (or *best is still unset).
func keepBest(best *time.Duration, d time.Duration) {
	if *best == 0 || d < *best {
		*best = d
	}
}

// Render prints the series as an aligned text table mirroring the paper's
// figure axes.
func (s *Series) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", s.Name)
	fmt.Fprintf(w, "%-16s %14s %14s %8s\n", s.XLabel, "ours", "lewko", "ratio")
	for _, p := range s.Points {
		ratio := "-"
		if p.Lewko > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(p.Ours)/float64(p.Lewko))
		}
		fmt.Fprintf(w, "%-16d %14s %14s %8s\n", p.X, p.Ours.Round(time.Microsecond), p.Lewko.Round(time.Microsecond), ratio)
	}
}

// CSV renders the series as comma-separated values for external plotting.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,ours_ms,lewko_ms\n", s.XLabel)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d,%.3f,%.3f\n", p.X,
			float64(p.Ours)/float64(time.Millisecond),
			float64(p.Lewko)/float64(time.Millisecond))
	}
	return b.String()
}

// CheckShape verifies the hardware-independent claims of the paper's
// figures on a measured series: for encryption our scheme must be faster at
// (almost) every point; for decryption it must be slower or comparable
// (ours pays n_A extra pairings). It returns a human-readable verdict.
func (s *Series) CheckShape(op operation) (ok bool, verdict string) {
	wins := 0
	for _, p := range s.Points {
		if op == OpEncrypt && p.Ours < p.Lewko {
			wins++
		}
		if op == OpDecrypt && p.Ours > p.Lewko {
			wins++
		}
	}
	total := len(s.Points)
	ok = wins*2 > total // majority of points follow the paper's ordering
	side := "faster"
	if op == OpDecrypt {
		side = "slower (n_A extra pairings)"
	}
	verdict = fmt.Sprintf("%s: ours %s than Lewko at %d/%d points (paper shape %v)",
		s.Name, side, wins, total, ok)
	return ok, verdict
}
