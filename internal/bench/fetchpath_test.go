package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"maacs/internal/pairing"
)

// TestMeasureFetchPathSmoke runs the fetchpath experiment at toy scale on
// the small curve and checks the report shape: one row per representation
// in order, each with a time and a reply size, a record reply larger than
// its data component's, and a JSON round trip.
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
	if len(report.Rows) != len(wantOps) {
		t.Fatalf("got %d rows, want %d", len(report.Rows), len(wantOps))
	}
	for i, row := range report.Rows {
		if row.Op != wantOps[i] {
			t.Errorf("row %d is %s, want %s", i, row.Op, wantOps[i])
		}
		if row.NsPerOp <= 0 || row.ReplyBytes <= 0 {
			t.Errorf("%s: ns/op %v, reply %d bytes", row.Op, row.NsPerOp, row.ReplyBytes)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		rec, comp := report.Rows[pair[0]], report.Rows[pair[1]]
		if rec.ReplyBytes <= comp.ReplyBytes || comp.ReplyBytes <= report.DataBytes {
			t.Errorf("%s is %d bytes, %s %d bytes; want record > component > %d data bytes",
				rec.Op, rec.ReplyBytes, comp.Op, comp.ReplyBytes, report.DataBytes)
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
