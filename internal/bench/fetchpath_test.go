package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"maacs/internal/pairing"
)

// TestMeasureFetchPathSmoke runs the fetchpath experiment at toy scale on
// the small curve and checks the report shape: every op measured in both
// modes, speedups computed, JSON round-trips.
func TestMeasureFetchPathSmoke(t *testing.T) {
	report, err := MeasureFetchPath(FetchPathSpec{
		Params:          pairing.Test(),
		Owners:          2,
		RecordsPerOwner: 2,
		Iters:           10,
		Trials:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []string{"record_json", "component_json", "record_wire", "component_wire"}
	if got, want := len(report.Rows), 2*len(wantOps); got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	seen := make(map[string]map[string]bool)
	for _, row := range report.Rows {
		if row.NsPerOp <= 0 {
			t.Errorf("%s/%s: non-positive ns/op %v", row.Op, row.Mode, row.NsPerOp)
		}
		if seen[row.Op] == nil {
			seen[row.Op] = make(map[string]bool)
		}
		seen[row.Op][row.Mode] = true
	}
	for _, op := range wantOps {
		if !seen[op]["cached"] || !seen[op]["uncached"] {
			t.Errorf("op %s missing a mode: %v", op, seen[op])
		}
		if _, ok := report.Speedups[op]; !ok {
			t.Errorf("op %s missing from speedups", op)
		}
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var back FetchPathReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Rows) != len(report.Rows) {
		t.Fatalf("round-trip lost rows: %d != %d", len(back.Rows), len(report.Rows))
	}
	report.Render(&buf)
}
