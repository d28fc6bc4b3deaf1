// Benchmarks regenerating the paper's evaluation (Section VI), one family
// per table/figure. Figures 3 and 4 are parameter sweeps; each benchmark
// pins one point of the sweep so `go test -bench=.` samples the series, and
// cmd/maacs-bench runs the full 2..20 sweeps and prints the paper-style
// tables.
//
// Run with the paper-scale parameters (slow, exact reproduction):
//
//	go test -bench=. -benchmem
//
// The -short flag switches to the small test curve for a fast smoke pass:
//
//	go test -bench=. -short
package maacs

import (
	"crypto/rand"
	"io"
	"os"
	"testing"

	"maacs/internal/bench"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

func benchParams(b *testing.B) *pairing.Params {
	b.Helper()
	if testing.Short() {
		return pairing.Test()
	}
	return pairing.Default()
}

func cfg(b *testing.B, nA, nk int) bench.Config {
	return bench.Config{
		Params:            benchParams(b),
		Authorities:       nA,
		AttrsPerAuthority: nk,
		Rnd:               rand.Reader,
	}
}

// ---- Figure 3(a): encryption time vs number of authorities (n_k = 5) ----

func benchmarkEncryptOurs(b *testing.B, nA, nk int) {
	w, err := bench.SetupOurs(cfg(b, nA, nk))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Encrypt(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkEncryptLewko(b *testing.B, nA, nk int) {
	w, err := bench.SetupLewko(cfg(b, nA, nk))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Encrypt(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3aEncryptOursA2(b *testing.B)  { benchmarkEncryptOurs(b, 2, 5) }
func BenchmarkFig3aEncryptOursA8(b *testing.B)  { benchmarkEncryptOurs(b, 8, 5) }
func BenchmarkFig3aEncryptLewkoA2(b *testing.B) { benchmarkEncryptLewko(b, 2, 5) }
func BenchmarkFig3aEncryptLewkoA8(b *testing.B) { benchmarkEncryptLewko(b, 8, 5) }

// ---- Figure 3(b): decryption time vs number of authorities (n_k = 5) ----

func benchmarkDecryptOurs(b *testing.B, nA, nk int) {
	w, err := bench.SetupOurs(cfg(b, nA, nk))
	if err != nil {
		b.Fatal(err)
	}
	ct, _, err := w.Encrypt()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecryptLewko(b *testing.B, nA, nk int) {
	w, err := bench.SetupLewko(cfg(b, nA, nk))
	if err != nil {
		b.Fatal(err)
	}
	ct, _, err := w.Encrypt()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3bDecryptOursA2(b *testing.B)  { benchmarkDecryptOurs(b, 2, 5) }
func BenchmarkFig3bDecryptOursA8(b *testing.B)  { benchmarkDecryptOurs(b, 8, 5) }
func BenchmarkFig3bDecryptLewkoA2(b *testing.B) { benchmarkDecryptLewko(b, 2, 5) }
func BenchmarkFig3bDecryptLewkoA8(b *testing.B) { benchmarkDecryptLewko(b, 8, 5) }

// ---- Figure 4(a): encryption time vs attributes per authority (n_A = 5) ----

func BenchmarkFig4aEncryptOursK2(b *testing.B)  { benchmarkEncryptOurs(b, 5, 2) }
func BenchmarkFig4aEncryptOursK8(b *testing.B)  { benchmarkEncryptOurs(b, 5, 8) }
func BenchmarkFig4aEncryptLewkoK2(b *testing.B) { benchmarkEncryptLewko(b, 5, 2) }
func BenchmarkFig4aEncryptLewkoK8(b *testing.B) { benchmarkEncryptLewko(b, 5, 8) }

// ---- Figure 4(b): decryption time vs attributes per authority (n_A = 5) ----

func BenchmarkFig4bDecryptOursK2(b *testing.B)  { benchmarkDecryptOurs(b, 5, 2) }
func BenchmarkFig4bDecryptOursK8(b *testing.B)  { benchmarkDecryptOurs(b, 5, 8) }
func BenchmarkFig4bDecryptLewkoK2(b *testing.B) { benchmarkDecryptLewko(b, 5, 2) }
func BenchmarkFig4bDecryptLewkoK8(b *testing.B) { benchmarkDecryptLewko(b, 5, 8) }

// ---- Tables II/III/IV: component sizes and per-entity storage ----

// BenchmarkTable2ComponentSizes measures every component size the paper's
// Tables II–IV list and reports them as benchmark metrics (bytes).
func BenchmarkTable2ComponentSizes(b *testing.B) {
	c := cfg(b, 5, 5)
	var r *bench.SizeReport
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.MeasureSizes(c)
		if err != nil {
			b.Fatal(err)
		}
	}
	if ok, verdicts := r.CheckSizeShapes(); !ok {
		b.Fatalf("size shapes violated: %v", verdicts)
	}
	b.ReportMetric(float64(r.OursCiphertext), "ours-ct-bytes")
	b.ReportMetric(float64(r.LewkoCiphertext), "lewko-ct-bytes")
	b.ReportMetric(float64(r.OursSecretKey), "ours-sk-bytes")
	b.ReportMetric(float64(r.LewkoSecretKey), "lewko-sk-bytes")
}

// ---- Revocation (Section V-C efficiency claims) ----

// BenchmarkRevocationOursVsBaselines times one full revocation round over a
// corpus of stored ciphertexts: the paper's ReKey + proxy ReEncrypt against
// naive full re-encryption and the Hur trusted-server baseline.
func BenchmarkRevocationOursVsBaselines(b *testing.B) {
	c := cfg(b, 2, 3)
	var res *bench.RevocationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.MeasureRevocation(c, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Total().Microseconds()), "ours-total-µs")
	b.ReportMetric(float64(res.NaiveOwner.Microseconds()), "naive-µs")
	b.ReportMetric(float64(res.HurServer.Microseconds()), "hur-µs")
}

// BenchmarkReEncryptServer isolates the server's proxy re-encryption of one
// ciphertext (the partial, decryption-free step).
func BenchmarkReEncryptServer(b *testing.B) {
	ours, err := bench.SetupOurs(cfg(b, 2, 5))
	if err != nil {
		b.Fatal(err)
	}
	ct, _, err := ours.Encrypt()
	if err != nil {
		b.Fatal(err)
	}
	fromV, _, err := ours.AAs[0].Rekey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	uk, err := ours.AAs[0].UpdateKeyFor(ours.Owner.SecretKeyForAAs(), fromV)
	if err != nil {
		b.Fatal(err)
	}
	ui, err := ours.Owner.UpdateInfoFor(ct, uk)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ReEncrypt(ours.Sys, ct, ui, uk); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: faithful Eq. 1 decryption vs the path users run ----

func BenchmarkAblationDecryptEq1(b *testing.B) { benchmarkDecryptOurs(b, 5, 5) }

func BenchmarkAblationDecrypt(b *testing.B) {
	w, err := bench.SetupOurs(cfg(b, 5, 5))
	if err != nil {
		b.Fatal(err)
	}
	ct, _, err := w.Encrypt()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.DecryptAggregated(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Pairing substrate microbenchmarks ----

func BenchmarkPairing(b *testing.B) {
	p := benchParams(b)
	g := p.Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MustPair(g, g)
	}
}

func BenchmarkGExp(b *testing.B) {
	p := benchParams(b)
	g := p.Generator()
	k, err := p.RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Exp(k)
	}
}

func BenchmarkGTExp(b *testing.B) {
	p := benchParams(b)
	e := p.GTGenerator()
	k, err := p.RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Exp(k)
	}
}

// BenchmarkTable1Scalability renders the qualitative Table I (no timing —
// kept as a benchmark so -bench=Table regenerates every table).
func BenchmarkTable1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
	if os.Getenv("MAACS_PRINT_TABLES") != "" {
		bench.Table1(os.Stdout)
	}
}
