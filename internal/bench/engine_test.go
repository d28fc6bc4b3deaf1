package bench

import (
	"crypto/rand"
	"encoding/json"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestMeasureEngineProducesValidJSON(t *testing.T) {
	report, err := MeasureEngine(pairing.Test(), rand.Reader, []int{2, 4}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 6 {
		t.Fatalf("got %d points, want 6 (2 sizes × 3 ops)", len(report.Points))
	}
	ops := map[string]int{}
	for _, pt := range report.Points {
		ops[pt.Op]++
		if pt.SerialNs <= 0 || pt.ParallelNs <= 0 || pt.Speedup <= 0 {
			t.Fatalf("point %+v has non-positive measurement", pt)
		}
	}
	for _, op := range []string{"encrypt", "decrypt", "reencrypt"} {
		if ops[op] != 2 {
			t.Fatalf("op %q measured %d times, want 2", op, ops[op])
		}
	}
	if report.GOMAXPROCS < 1 || report.Workers < 1 {
		t.Fatalf("bad parallelism metadata: %+v", report)
	}

	var buf strings.Builder
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var round EngineReport
	if err := json.Unmarshal([]byte(buf.String()), &round); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(round.Points) != len(report.Points) {
		t.Fatal("round-trip lost points")
	}

	buf.Reset()
	report.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
