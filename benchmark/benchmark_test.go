package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"maacs/internal/pairing"
)

// smokeScale shrinks every population so a workload sets up in milliseconds
// on the test curve.
var smokeScale = scale{
	owners: 2, recordsPerOwner: 4, users: 3,
	dataBytes: 4096, summaryBytes: 256,
	downloadRecords: 400, templates: 8, downloadBytes: 256,
	churnSeeded:   200,
	revokeRecords: 8, revokeUsers: 3,
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nprogram\n%v", s.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nprogram\n%v", s.PerLayer, perLayer)
	}
}

// listing names every file under dir with its size and modification time.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %d %v", path, info.Size(), info.ModTime()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload briefly, untraced and traced, on the test
// curve: every answer must be right, every metric of BENCHMARK.json must be
// printed with its unit, and nothing may be written outside the test's
// temporary directory.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	before := listing(t, ".")
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := &config{
				workload: w,
				seed:     7,
				measure:  time.Second,
				warmup:   200 * time.Millisecond,
				setups:   2,
				trace:    trace,
				params:   pairing.Test(),
				scale:    smokeScale,
				dir:      t.TempDir(),
				out:      t.TempDir(),
				log:      &log,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			defs := s.EndToEnd
			if trace {
				defs = s.PerLayer
				if _, err := os.Stat(filepath.Join(cfg.out, "spans.json")); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json has %d", w, trace, len(res.Metrics), len(defs))
			}
			var keys map[string]json.RawMessage
			line, _ := json.Marshal(res)
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
			}
		}
	}
	if after := listing(t, "."); !reflect.DeepEqual(before, after) {
		t.Errorf("the benchmark wrote into its package directory:\nbefore %v\nafter  %v", before, after)
	}
}
