package engine

import (
	"sync/atomic"
	"time"
)

// Stats is a snapshot (or a delta between two snapshots) of the engine's
// process-wide activity counters: how many jobs the pools scheduled and how
// effective the PreparedG and exp-table caches were. Counters are
// cumulative and monotonically non-decreasing for the life of the process;
// WallNs is only populated on deltas produced by Measure and on sums of
// such deltas (a raw snapshot carries no meaningful wall time).
type Stats struct {
	// Jobs counts jobs scheduled through Pool.Run (including the inline
	// serial path and nested runs, such as per-row fan-outs inside a
	// per-ciphertext job).
	Jobs uint64 `json:"jobs"`
	// PreparedHits/PreparedMisses track the Miller-loop preparation cache.
	PreparedHits   uint64 `json:"prepared_hits"`
	PreparedMisses uint64 `json:"prepared_misses"`
	// ExpHits/ExpMisses track the exp-table cache.
	ExpHits   uint64 `json:"exp_hits"`
	ExpMisses uint64 `json:"exp_misses"`
	// WallNs is the wall time of the measured region (Measure deltas only).
	WallNs int64 `json:"wall_ns"`
}

// jobsScheduled is the process-wide job counter behind SnapshotStats. Cache
// hit/miss counters live on the caches themselves (pair.go).
var jobsScheduled atomic.Uint64

// SnapshotStats returns the cumulative engine counters. Subtract two
// snapshots with Delta to attribute work to a region of code; note the
// counters are process-wide, so concurrent engine users show up in the
// difference too.
func SnapshotStats() Stats {
	pHits, pMisses := PreparedCacheStats()
	eHits, eMisses := ExpCacheStats()
	return Stats{
		Jobs:           jobsScheduled.Load(),
		PreparedHits:   pHits,
		PreparedMisses: pMisses,
		ExpHits:        eHits,
		ExpMisses:      eMisses,
	}
}

// Delta returns s - since, field by field. WallNs subtracts too, so deltas of
// raw snapshots stay zero.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		Jobs:           s.Jobs - since.Jobs,
		PreparedHits:   s.PreparedHits - since.PreparedHits,
		PreparedMisses: s.PreparedMisses - since.PreparedMisses,
		ExpHits:        s.ExpHits - since.ExpHits,
		ExpMisses:      s.ExpMisses - since.ExpMisses,
		WallNs:         s.WallNs - since.WallNs,
	}
}

// Add returns the field-wise sum of two stats — used to accumulate
// per-request deltas into a running total.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Jobs:           s.Jobs + o.Jobs,
		PreparedHits:   s.PreparedHits + o.PreparedHits,
		PreparedMisses: s.PreparedMisses + o.PreparedMisses,
		ExpHits:        s.ExpHits + o.ExpHits,
		ExpMisses:      s.ExpMisses + o.ExpMisses,
		WallNs:         s.WallNs + o.WallNs,
	}
}

// Measure runs f and returns the engine activity it caused, with WallNs set
// to f's wall time. The job and cache counters are process-wide deltas: exact
// when f is the only engine user during the call, an over-count otherwise.
// Nothing serializes engine use — the cloud server measures each
// re-encryption window with no lock held — so concurrent engine users in the
// process (readers decrypting, other re-encryptions) land in the counts.
func Measure(f func() error) (Stats, error) {
	pre := SnapshotStats()
	start := time.Now()
	err := f()
	d := SnapshotStats().Delta(pre)
	d.WallNs = time.Since(start).Nanoseconds()
	return d, err
}
