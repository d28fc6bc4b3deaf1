// Package engine is the shared group-compute layer every scheme package and
// the cloud server's proxy re-encryption path run their per-attribute and
// per-row hot loops on. It offers:
//
//   - a bounded worker pool (sized by GOMAXPROCS, overridable) that evaluates
//     independent jobs in parallel with first-error cancellation,
//   - two-base exponentiation helpers (DualExp on each base's own comb,
//     DualExpGT),
//   - validated decoding of ciphertext elements (DecodeG, DecodeGT) behind
//     a bounded LRU keyed by the exact encoding,
//   - process-wide activity counters (jobs, preparation and comb builds and
//     reuses) snapshotted via SnapshotStats and attributed to a region with
//     Measure.
//
// Determinism guarantee: every helper produces results that are bit-identical
// to the equivalent serial loop. Jobs write only to their own index of a
// result slice and callers combine results in index order; group arithmetic
// is exact, so the schedule never leaks into the output. Randomness is never
// drawn inside pool jobs — callers draw all scalars serially before fanning
// out, so a deterministic io.Reader reproduces byte-identical ciphertexts
// whether the pool runs with 1 worker or 64.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool for independent group-compute jobs. The zero
// worker count is not valid; construct pools with New. A Pool is immutable
// and safe for concurrent use.
type Pool struct {
	workers int
}

// New returns a pool running at most workers jobs concurrently. workers < 1
// selects GOMAXPROCS. A 1-worker pool runs every job inline on the calling
// goroutine, which is the reference serial path the differential tests
// compare against.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// defaultPool is the process-wide pool the scheme packages submit to.
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(New(0))
}

// Default returns the process-wide pool (GOMAXPROCS workers unless
// overridden with SetWorkers).
func Default() *Pool {
	return defaultPool.Load()
}

// SetWorkers replaces the default pool's concurrency bound (n < 1 restores
// GOMAXPROCS sizing) and returns a function restoring the previous pool —
// the engine-on/off toggle the benchmarks and differential tests use.
func SetWorkers(n int) (restore func()) {
	old := defaultPool.Swap(New(n))
	return func() { defaultPool.Store(old) }
}

// Run evaluates job(0) … job(n-1), at most Workers() at a time, and waits
// for completion. After the first failure no new jobs start (jobs already
// running finish); the error returned is the one from the lowest-indexed
// job that ran and failed, so error reporting does not depend on the
// schedule. Jobs must be independent: they may only write state owned by
// their own index.
func (p *Pool) Run(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	jobsScheduled.Add(uint64(n))
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   int64 = -1
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || failed.Load() {
					return
				}
				if err := job(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
