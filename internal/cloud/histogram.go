package cloud

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed latency histograms. Buckets double from 10µs, so 25 buckets
// span 10µs to ~168s — cheap fetches and multi-second re-encryption batches
// land in the same family. Observation is a pair of atomic adds with no lock,
// so the fetch fast path stays lock-free; snapshots fold the buckets into the
// cumulative `le` form of Prometheus histograms.

// histBuckets is the number of finite buckets; observations beyond the last
// boundary count only toward the +Inf bucket.
const histBuckets = 25

// histBaseNs is the first bucket boundary: observations of at most 10µs land
// in bucket 0, and boundary k is histBaseNs<<k.
const histBaseNs = 10_000

// LatencyHistogram counts duration observations into log-spaced buckets.
// All methods are safe for concurrent use and take no lock.
type LatencyHistogram struct {
	counts   [histBuckets]atomic.Uint64
	overflow atomic.Uint64
	sumNs    atomic.Int64
}

// histBucketIndex maps a duration in nanoseconds to its bucket: bucket k
// covers (histBaseNs<<(k-1), histBaseNs<<k] nanoseconds, bucket 0 starts at
// zero. Indices past the last finite bucket report histBuckets (overflow).
func histBucketIndex(ns int64) int {
	if ns <= histBaseNs {
		return 0
	}
	k := bits.Len64(uint64(ns-1) / histBaseNs)
	if k >= histBuckets {
		return histBuckets
	}
	return k
}

// Observe records one duration. Negative durations clamp to zero.
func (h *LatencyHistogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.sumNs.Add(ns)
	if k := histBucketIndex(ns); k < histBuckets {
		h.counts[k].Add(1)
	} else {
		h.overflow.Add(1)
	}
}

// HistogramBucket is one cumulative bucket of a snapshot: Count observations
// were at most LE seconds.
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram in the cumulative
// `le` form of the Prometheus exposition. Buckets are trimmed after the first
// bucket that already holds every finite observation (the implied +Inf bucket
// always equals Count), so sparse histograms stay small on the wire.
type HistogramSnapshot struct {
	Buckets []HistogramBucket `json:"buckets,omitempty"`
	// Count is the total number of observations, including those past the
	// last finite bucket boundary.
	Count uint64 `json:"count"`
	// SumNs is the summed observed duration in nanoseconds.
	SumNs int64 `json:"sum_ns"`
}

// boundarySeconds returns finite bucket boundary k in seconds.
func boundarySeconds(k int) float64 {
	return float64(int64(histBaseNs)<<k) / 1e9
}

// Snapshot copies the current counts. Concurrent Observe calls may or may not
// be included; the snapshot itself is internally consistent (Count always
// equals the implied +Inf bucket).
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	total := h.overflow.Load()
	finite := uint64(0)
	for k := range counts {
		counts[k] = h.counts[k].Load()
		finite += counts[k]
	}
	total += finite
	snap := HistogramSnapshot{Count: total, SumNs: h.sumNs.Load()}
	cum := uint64(0)
	for k := 0; k < histBuckets; k++ {
		cum += counts[k]
		snap.Buckets = append(snap.Buckets, HistogramBucket{LE: boundarySeconds(k), Count: cum})
		if cum == finite {
			break // every later finite bucket repeats this cumulative count
		}
	}
	if total == 0 {
		snap.Buckets = nil
	}
	return snap
}
