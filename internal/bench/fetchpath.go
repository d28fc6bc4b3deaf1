package bench

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"io"
	"testing"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

// Fetchpath experiment: the serving cost of the four fetch representations
// (whole record / single component × HTTP JSON body / RPC wire payload),
// measured against the in-process server so the numbers isolate the read
// path itself: the store lookup, the render from the stored record and the
// metering, with no transport and no syscalls. Every download renders, so
// this is what each fetch costs the server. The records have the read
// workload's shape (benchmark/workloads.go): a 4,096-byte data component
// under a six-row AND policy over three authorities and a 256-byte summary
// under one attribute; the component rows fetch the data component.
// Allocations per op come from testing.AllocsPerRun.

// The read workload's record shape.
const (
	fetchPathDataBytes     = 4096
	fetchPathSummaryBytes  = 256
	fetchPathDataPolicy    = "aa1:a AND aa1:b AND aa2:a AND aa2:b AND aa3:a AND aa3:b"
	fetchPathSummaryPolicy = "aa1:a"
)

// FetchPathSpec configures one fetchpath run.
type FetchPathSpec struct {
	// Params selects the pairing group; Rnd supplies setup randomness.
	Params *pairing.Params
	Rnd    io.Reader
	// Owners and RecordsPerOwner size the stored population.
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

// FetchPathRow is one representation's measurement.
type FetchPathRow struct {
	Op          string  `json:"op"` // record_json, component_json, record_wire, component_wire
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// ReplyBytes is the reply's size: the JSON body, or the label,
	// ciphertext and sealed bytes of the wire components.
	ReplyBytes int `json:"reply_bytes"`
}

// FetchPathReport is the machine-readable result of MeasureFetchPath,
// written to BENCH_fetchpath.json.
type FetchPathReport struct {
	Header
	Owners          int            `json:"owners"`
	RecordsPerOwner int            `json:"records_per_owner"`
	DataBytes       int            `json:"data_bytes"`
	SummaryBytes    int            `json:"summary_bytes"`
	Iters           int            `json:"iters"`
	Rows            []FetchPathRow `json:"rows"`
}

// fetchPathOp binds an operation name to a round-robin request closure that
// returns the reply's size.
type fetchPathOp struct {
	name string
	call func() (int, error)
}

// buildFetchPathPopulation uploads the stored population and returns the
// record IDs.
func buildFetchPathPopulation(spec FetchPathSpec) (*cloud.Env, []string, error) {
	sys := core.NewSystem(spec.Params)
	env := cloud.NewEnv(sys, spec.Rnd)
	for _, aid := range []string{"aa1", "aa2", "aa3"} {
		if _, err := env.AddAuthority(aid, []string{"a", "b"}); err != nil {
			return nil, nil, err
		}
	}
	data := bytes.Repeat([]byte{'d'}, fetchPathDataBytes)
	summary := bytes.Repeat([]byte{'s'}, fetchPathSummaryBytes)
	var ids []string
	for k := 0; k < spec.Owners; k++ {
		oc, err := env.AddOwner(fmt.Sprintf("fp-owner-%02d", k))
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < spec.RecordsPerOwner; i++ {
			id := fmt.Sprintf("%s-rec-%03d", oc.Owner.ID(), i)
			if _, err := oc.Upload(id, []cloud.UploadComponent{
				{Label: "data", Data: data, Policy: fetchPathDataPolicy},
				{Label: "summary", Data: summary, Policy: fetchPathSummaryPolicy},
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
	wireSize := func(comps []cloud.RPCComponent) int {
		n := 0
		for _, c := range comps {
			n += len(c.Label) + len(c.CT) + len(c.Sealed)
		}
		return n
	}
	var rj, cj, rw, cw int
	return []fetchPathOp{
		{"record_json", func() (int, error) {
			id := ids[rj%len(ids)]
			rj++
			body, err := env.Server.FetchRecordJSON(id, "bench-user")
			return len(body), err
		}},
		{"component_json", func() (int, error) {
			id := ids[cj%len(ids)]
			cj++
			body, err := env.Server.FetchComponentJSON(id, "data", "bench-user")
			return len(body), err
		}},
		{"record_wire", func() (int, error) {
			id := ids[rw%len(ids)]
			rw++
			_, comps, err := env.Server.FetchWire(id, "", "bench-user")
			return wireSize(comps), err
		}},
		{"component_wire", func() (int, error) {
			id := ids[cw%len(ids)]
			cw++
			_, comps, err := env.Server.FetchWire(id, "data", "bench-user")
			return wireSize(comps), err
		}},
	}
}

// timeFetchOp returns the best-of-trials mean ns/op.
func timeFetchOp(iters, trials int, call func() (int, error)) (float64, error) {
	best := 0.0
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := call(); err != nil {
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

// MeasureFetchPath measures the serving cost of the fetch representations
// at the spec's population scale.
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
		DataBytes:       fetchPathDataBytes,
		SummaryBytes:    fetchPathSummaryBytes,
		Iters:           spec.Iters,
	}
	for _, op := range fetchPathOps(env, ids) {
		// Warm: the encoder pools and the per-user accounting row.
		size, err := op.call()
		if err != nil {
			return nil, fmt.Errorf("fetchpath %s: %w", op.name, err)
		}
		ns, err := timeFetchOp(spec.Iters, spec.Trials, op.call)
		if err != nil {
			return nil, fmt.Errorf("fetchpath %s: %w", op.name, err)
		}
		call := op.call
		allocs := testing.AllocsPerRun(50, func() { _, _ = call() })
		report.Rows = append(report.Rows, FetchPathRow{Op: op.name, NsPerOp: ns, AllocsPerOp: allocs, ReplyBytes: size})
	}
	return report, nil
}

// Render prints a human-readable table.
func (r *FetchPathReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fetchpath — GOMAXPROCS=%d, |r|=%d bits, %d owners × %d records (data %d B under 6 rows, summary %d B under 1), %d iters\n",
		r.GOMAXPROCS, r.RBits, r.Owners, r.RecordsPerOwner, r.DataBytes, r.SummaryBytes, r.Iters)
	fmt.Fprintf(w, "%-16s %12s %10s %12s\n", "op", "render", "allocs/op", "reply bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %10.1fµs %10.1f %12d\n", row.Op, row.NsPerOp/1e3, row.AllocsPerOp, row.ReplyBytes)
	}
}
