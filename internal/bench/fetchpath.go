package bench

import (
	crand "crypto/rand"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

// Fetchpath experiment: cached vs uncached serving cost of the four fetch
// representations (whole record / single component × HTTP JSON body / RPC
// wire payload), measured against the in-process server so the numbers
// isolate the serialization path itself — no transport, no syscalls. The
// cached rows ride the encoded-response cache (the zero-serialization read
// path); the uncached rows run the same requests with the cache disabled,
// which is the pre-cache serving cost: record lookup plus a fresh render per
// request. Allocations per op come from testing.AllocsPerRun; the cached
// steady state must be allocation-free.

// FetchPathSpec configures one fetchpath run.
type FetchPathSpec struct {
	// Params selects the pairing group; Rnd supplies setup randomness.
	Params *pairing.Params
	Rnd    io.Reader
	// Owners and RecordsPerOwner size the stored population (each record
	// carries a data and a meta component).
	Owners, RecordsPerOwner int
	// Iters is the timed iteration count per row; Trials takes the best of
	// repeated timings.
	Iters, Trials int
}

func (s *FetchPathSpec) fillDefaults() {
	if s.Params == nil {
		s.Params = pairing.Default()
	}
	if s.Rnd == nil {
		s.Rnd = crand.Reader
	}
	if s.Owners <= 0 {
		s.Owners = 4
	}
	if s.RecordsPerOwner <= 0 {
		s.RecordsPerOwner = 6
	}
	if s.Iters <= 0 {
		s.Iters = 300
	}
	if s.Trials <= 0 {
		s.Trials = 3
	}
}

// FetchPathRow is one (operation, mode) measurement.
type FetchPathRow struct {
	Op          string  `json:"op"`   // record_json, component_json, record_wire, component_wire
	Mode        string  `json:"mode"` // cached | uncached
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// FetchPathReport is the machine-readable result of MeasureFetchPath,
// written to BENCH_fetchpath.json.
type FetchPathReport struct {
	Header
	Owners          int            `json:"owners"`
	RecordsPerOwner int            `json:"records_per_owner"`
	Iters           int            `json:"iters"`
	Rows            []FetchPathRow `json:"rows"`
	// Speedups maps each op to uncached-ns / cached-ns.
	Speedups map[string]float64 `json:"speedups"`
}

// fetchPathOp binds an operation name to a round-robin request closure.
type fetchPathOp struct {
	name string
	call func() error
}

// buildFetchPathPopulation uploads the stored population and returns the
// record IDs.
func buildFetchPathPopulation(spec FetchPathSpec) (*cloud.Env, []string, error) {
	sys := core.NewSystem(spec.Params)
	env := cloud.NewEnv(sys, spec.Rnd)
	const aid = "fetchpath-aa"
	if _, err := env.AddAuthority(aid, []string{"read"}); err != nil {
		return nil, nil, err
	}
	var ids []string
	for k := 0; k < spec.Owners; k++ {
		oc, err := env.AddOwner(fmt.Sprintf("fp-owner-%02d", k))
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < spec.RecordsPerOwner; i++ {
			id := fmt.Sprintf("%s-rec-%03d", oc.Owner.ID(), i)
			if _, err := oc.Upload(id, []cloud.UploadComponent{
				{Label: "data", Data: []byte(fmt.Sprintf("payload of %s", id)), Policy: aid + ":read"},
				{Label: "meta", Data: []byte("created by the fetchpath bench"), Policy: aid + ":read"},
			}); err != nil {
				return nil, nil, err
			}
			ids = append(ids, id)
		}
	}
	return env, ids, nil
}

// fetchPathOps builds the four operations round-robining over the stored
// records.
func fetchPathOps(env *cloud.Env, ids []string) []fetchPathOp {
	var rj, cj, rw, cw int
	return []fetchPathOp{
		{"record_json", func() error {
			id := ids[rj%len(ids)]
			rj++
			_, err := env.Server.FetchRecordJSON(id, "bench-user")
			return err
		}},
		{"component_json", func() error {
			id := ids[cj%len(ids)]
			cj++
			_, err := env.Server.FetchComponentJSON(id, "data", "bench-user")
			return err
		}},
		{"record_wire", func() error {
			id := ids[rw%len(ids)]
			rw++
			_, _, err := env.Server.FetchWire(id, "", "bench-user")
			return err
		}},
		{"component_wire", func() error {
			id := ids[cw%len(ids)]
			cw++
			_, _, err := env.Server.FetchWire(id, "data", "bench-user")
			return err
		}},
	}
}

// timeFetchOp returns the best-of-trials mean ns/op.
func timeFetchOp(iters, trials int, call func() error) (float64, error) {
	best := 0.0
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := call(); err != nil {
				return 0, err
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if t == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// measureFetchPathMode times and counts allocations for every op in one
// cache mode.
func measureFetchPathMode(spec FetchPathSpec, ops []fetchPathOp, mode string) ([]FetchPathRow, error) {
	rows := make([]FetchPathRow, 0, len(ops))
	for _, op := range ops {
		// Warm: primes the cache in cached mode, the pools in uncached mode.
		for i := 0; i < 2; i++ {
			if err := op.call(); err != nil {
				return nil, fmt.Errorf("fetchpath %s/%s: %w", op.name, mode, err)
			}
		}
		ns, err := timeFetchOp(spec.Iters, spec.Trials, op.call)
		if err != nil {
			return nil, fmt.Errorf("fetchpath %s/%s: %w", op.name, mode, err)
		}
		call := op.call
		allocs := testing.AllocsPerRun(50, func() { _ = call() })
		rows = append(rows, FetchPathRow{Op: op.name, Mode: mode, NsPerOp: ns, AllocsPerOp: allocs})
	}
	return rows, nil
}

// MeasureFetchPath measures cached vs uncached serving cost of the fetch
// representations at the spec's population scale.
func MeasureFetchPath(spec FetchPathSpec) (*FetchPathReport, error) {
	spec.fillDefaults()
	env, ids, err := buildFetchPathPopulation(spec)
	if err != nil {
		return nil, fmt.Errorf("fetchpath setup: %w", err)
	}
	report := &FetchPathReport{
		Header:          newHeader(spec.Params),
		Owners:          spec.Owners,
		RecordsPerOwner: spec.RecordsPerOwner,
		Iters:           spec.Iters,
		Speedups:        make(map[string]float64),
	}

	// Uncached first: with the cache disabled every request renders afresh.
	env.Server.SetResponseCacheBytes(0)
	uncached, err := measureFetchPathMode(spec, fetchPathOps(env, ids), "uncached")
	if err != nil {
		return nil, err
	}
	// Cached: re-enable, then measure the steady-state hit path.
	env.Server.SetResponseCacheBytes(cloud.DefaultResponseCacheBytes)
	cached, err := measureFetchPathMode(spec, fetchPathOps(env, ids), "cached")
	if err != nil {
		return nil, err
	}

	report.Rows = append(report.Rows, uncached...)
	report.Rows = append(report.Rows, cached...)
	uncachedNs := make(map[string]float64, len(uncached))
	for _, row := range uncached {
		uncachedNs[row.Op] = row.NsPerOp
	}
	for _, row := range cached {
		if row.NsPerOp > 0 {
			report.Speedups[row.Op] = uncachedNs[row.Op] / row.NsPerOp
		}
	}
	return report, nil
}

// Render prints a human-readable comparison table.
func (r *FetchPathReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fetchpath — GOMAXPROCS=%d, |r|=%d bits, %d owners × %d records, %d iters\n",
		r.GOMAXPROCS, r.RBits, r.Owners, r.RecordsPerOwner, r.Iters)
	byMode := make(map[string]map[string]FetchPathRow)
	for _, row := range r.Rows {
		if byMode[row.Op] == nil {
			byMode[row.Op] = make(map[string]FetchPathRow)
		}
		byMode[row.Op][row.Mode] = row
	}
	ops := make([]string, 0, len(byMode))
	for op := range byMode {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "%-16s %14s %14s %9s %14s %14s\n",
		"op", "uncached", "cached", "speedup", "unc allocs/op", "cache allocs/op")
	for _, op := range ops {
		u, c := byMode[op]["uncached"], byMode[op]["cached"]
		fmt.Fprintf(w, "%-16s %12.1fµs %12.3fµs %8.1fx %14.1f %14.1f\n",
			op, u.NsPerOp/1e3, c.NsPerOp/1e3, r.Speedups[op], u.AllocsPerOp, c.AllocsPerOp)
	}
}
