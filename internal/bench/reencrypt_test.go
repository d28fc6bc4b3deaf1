package bench

import (
	"crypto/rand"
	"encoding/json"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestMeasureReEncryptBatchProducesValidJSON(t *testing.T) {
	report, err := MeasureReEncryptBatch(pairing.Test(), rand.Reader, []int{2, 4}, 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(report.Points))
	}
	if report.Window != 2 {
		t.Fatalf("window %d, want 2", report.Window)
	}
	for _, pt := range report.Points {
		if pt.PerRequestNs <= 0 || pt.BatchedNs <= 0 || pt.WindowedNs <= 0 || pt.Speedup <= 0 {
			t.Fatalf("point %+v has non-positive measurement", pt)
		}
		// Window size 2 over one item per ciphertext → ceil(cts/2) engine runs.
		if want := (pt.Ciphertexts + 1) / 2; pt.Windows != want {
			t.Fatalf("point %d: %d windows, want %d", pt.Ciphertexts, pt.Windows, want)
		}
		// The windowed run's per-owner counters must attribute the whole corpus
		// to the benchmark owner.
		if pt.Owner.ReEncryptedCiphertexts != uint64(pt.Ciphertexts) {
			t.Fatalf("point %d: owner re-encrypted %d, want %d",
				pt.Ciphertexts, pt.Owner.ReEncryptedCiphertexts, pt.Ciphertexts)
		}
		if pt.Owner.ReEncryptRequests != 1 || pt.Owner.Records != pt.Ciphertexts {
			t.Fatalf("point %d: owner stats %+v", pt.Ciphertexts, pt.Owner)
		}
		if pt.Owner.Engine.WallNs <= 0 {
			t.Fatalf("point %d: owner engine wall time missing", pt.Ciphertexts)
		}
		// The fused run's per-request engine stats must be populated: at least
		// one job per re-encrypted ciphertext (nested per-row runs add more),
		// and some wall time.
		if pt.BatchEngine.Jobs < uint64(pt.Ciphertexts) {
			t.Fatalf("point %d: %d engine jobs, want >= %d", pt.Ciphertexts, pt.BatchEngine.Jobs, pt.Ciphertexts)
		}
		if pt.BatchEngine.WallNs <= 0 {
			t.Fatalf("point %d: no engine wall time", pt.Ciphertexts)
		}
	}
	if report.GOMAXPROCS < 1 || report.Workers < 1 {
		t.Fatalf("bad parallelism metadata: %+v", report)
	}

	var buf strings.Builder
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var round ReEncryptBatchReport
	if err := json.Unmarshal([]byte(buf.String()), &round); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(round.Points) != len(report.Points) {
		t.Fatal("round-trip lost points")
	}
	if round.Points[0].BatchEngine != report.Points[0].BatchEngine {
		t.Fatal("round-trip changed engine stats")
	}

	buf.Reset()
	report.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
