package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

// WALCommitPoint is one concurrency level's result in the group-commit
// experiment: how fast durable Puts complete, and how many fsyncs each one
// cost. Group commit's promise is FsyncsPerOp → well under 1 as writers
// stack up, because a batch of enqueued mutations rides one leader's fsync.
type WALCommitPoint struct {
	Writers int    `json:"writers"`
	Ops     uint64 `json:"ops"`
	WallNs  int64  `json:"wall_ns"`
	// OpsPerSec is committed (fsync-acknowledged) mutations per second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Fsyncs is the WAL fsync count the workload caused.
	Fsyncs      uint64  `json:"fsyncs"`
	FsyncsPerOp float64 `json:"fsyncs_per_op"`
	// Segments is how many WAL segments were live when the workload ended
	// (rotation evidence; compaction may have folded earlier ones).
	Segments int `json:"segments"`
}

// WALCommitReport is the machine-readable result of MeasureWALCommit,
// written to BENCH_walcommit.json.
type WALCommitReport struct {
	Header
	OpsPerWriter int              `json:"ops_per_writer"`
	SegmentBytes int64            `json:"segment_bytes"`
	Points       []WALCommitPoint `json:"points"`
}

// walCommitTemplate mints one real record (CP-ABE ciphertext included)
// whose immutable components every bench Put shares — the workload measures
// the commit path, not encryption.
func walCommitTemplate(params *pairing.Params, rnd io.Reader) (*core.System, *cloud.Record, error) {
	sys := core.NewSystem(params)
	env := cloud.NewEnvWithStore(sys, rnd, cloud.NewMemStore())
	if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
		return nil, nil, err
	}
	owner, err := env.AddOwner("bench-owner")
	if err != nil {
		return nil, nil, err
	}
	rec, err := owner.Upload("template", []cloud.UploadComponent{
		{Label: "data", Data: []byte("wal commit bench payload"), Policy: "a:x"},
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, rec, nil
}

// MeasureWALCommit drives W concurrent writers (for each W in writers)
// against a fresh FileStore, each committing opsPerWriter records, and
// reports throughput and fsyncs per committed op. segmentBytes tunes WAL
// rotation (0 keeps the engine default). Every concurrency level gets its
// own data directory under dir, so points never share log state.
func MeasureWALCommit(params *pairing.Params, rnd io.Reader, dir string, opsPerWriter int, segmentBytes int64, writers []int) (*WALCommitReport, error) {
	sys, template, err := walCommitTemplate(params, rnd)
	if err != nil {
		return nil, fmt.Errorf("walcommit setup: %w", err)
	}
	report := &WALCommitReport{
		Header:       newHeader(params),
		OpsPerWriter: opsPerWriter,
		SegmentBytes: segmentBytes,
	}
	for _, w := range writers {
		pt, err := measureWALCommitPoint(sys, template, filepath.Join(dir, fmt.Sprintf("writers-%02d", w)), w, opsPerWriter, segmentBytes)
		if err != nil {
			return nil, fmt.Errorf("walcommit writers=%d: %w", w, err)
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

func measureWALCommitPoint(sys *core.System, template *cloud.Record, dir string, writers, opsPerWriter int, segmentBytes int64) (WALCommitPoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return WALCommitPoint{}, err
	}
	fs, err := cloud.OpenFileStore(sys, dir)
	if err != nil {
		return WALCommitPoint{}, err
	}
	defer fs.Close()
	if segmentBytes > 0 {
		fs.SetSegmentBytes(segmentBytes)
	}

	base := fs.Info()
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				rec := &cloud.Record{
					ID:         fmt.Sprintf("w%02d-op%06d", w, i),
					OwnerID:    template.OwnerID,
					Components: template.Components,
				}
				if err := fs.Put(rec); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errc)
	for err := range errc {
		return WALCommitPoint{}, err
	}

	info := fs.Info()
	ops := uint64(writers * opsPerWriter)
	fsyncs := info.WALFsyncs - base.WALFsyncs
	return WALCommitPoint{
		Writers:     writers,
		Ops:         ops,
		WallNs:      wall.Nanoseconds(),
		OpsPerSec:   float64(ops) / wall.Seconds(),
		Fsyncs:      fsyncs,
		FsyncsPerOp: float64(fsyncs) / float64(ops),
		Segments:    info.WALSegments,
	}, nil
}

// Render prints a human-readable table of the report.
func (r *WALCommitReport) Render(w io.Writer) {
	fmt.Fprintf(w, "WAL group commit — GOMAXPROCS=%d, |r|=%d bits, %d ops/writer, segment=%dB\n",
		r.GOMAXPROCS, r.RBits, r.OpsPerWriter, r.SegmentBytes)
	fmt.Fprintf(w, "%8s %8s %12s %10s %12s %9s\n",
		"writers", "ops", "ops/sec", "fsyncs", "fsyncs/op", "segments")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%8d %8d %12.0f %10d %12.3f %9d\n",
			pt.Writers, pt.Ops, pt.OpsPerSec, pt.Fsyncs, pt.FsyncsPerOp, pt.Segments)
	}
}
