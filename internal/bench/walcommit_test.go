package bench

import (
	"crypto/rand"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

// TestMeasureWALCommit smoke-tests the group-commit experiment on the test
// curve: every concurrency level commits all its ops durably and the report
// carries the fsync accounting the JSON consumers read.
func TestMeasureWALCommit(t *testing.T) {
	report, err := MeasureWALCommit(pairing.Test(), rand.Reader, t.TempDir(), 8, 4<<10, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 2 {
		t.Fatalf("%d points, want 2", len(report.Points))
	}
	for _, pt := range report.Points {
		if pt.Ops != uint64(pt.Writers*8) {
			t.Fatalf("writers=%d: %d ops, want %d", pt.Writers, pt.Ops, pt.Writers*8)
		}
		if pt.Fsyncs == 0 || pt.Fsyncs > pt.Ops {
			t.Fatalf("writers=%d: %d fsyncs for %d ops", pt.Writers, pt.Fsyncs, pt.Ops)
		}
		if pt.OpsPerSec <= 0 || pt.FsyncsPerOp <= 0 {
			t.Fatalf("writers=%d: degenerate rates %+v", pt.Writers, pt)
		}
		if pt.Segments < 1 {
			t.Fatalf("writers=%d: %d segments", pt.Writers, pt.Segments)
		}
	}
	// A single writer commits alone: every op is its own fsync.
	if got := report.Points[0].FsyncsPerOp; got != 1 {
		t.Fatalf("1 writer: %v fsyncs/op, want exactly 1", got)
	}

	var sb strings.Builder
	report.Render(&sb)
	if !strings.Contains(sb.String(), "fsyncs/op") {
		t.Fatalf("render missing header:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteJSON(&sb, report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"fsyncs_per_op\"") {
		t.Fatalf("json missing field:\n%s", sb.String())
	}
}
