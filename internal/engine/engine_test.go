package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEveryJob(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		const n = 100
		var hits [n]atomic.Int32
		if err := p.Run(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	p := New(4)
	if err := p.Run(0, func(int) error { t.Fatal("job ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.Run(50, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 40:
				return errHigh
			}
			return nil
		})
		// Job 40 may be skipped by cancellation, but job 3 always runs and
		// must win over any higher-indexed failure.
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errLow)
		}
	}
}

// TestRunCancelsAfterFailure makes every job fail, so each worker stores
// the failure before it claims again: whatever the schedule, each worker
// runs at most one job, and Run returns the error of the lowest-indexed job
// that ran.
func TestRunCancelsAfterFailure(t *testing.T) {
	const workers, n = 4, 10_000
	p := New(workers)
	var mu sync.Mutex
	var ran []int
	err := p.Run(n, func(i int) error {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		return fmt.Errorf("job %d", i)
	})
	if len(ran) < 1 || len(ran) > workers {
		t.Fatalf("%d of %d jobs ran, want 1 to %d (one per worker)", len(ran), n, workers)
	}
	lowest := slices.Min(ran)
	if want := fmt.Sprintf("job %d", lowest); err == nil || err.Error() != want {
		t.Fatalf("Run returned %v, want the lowest-indexed failure %q (ran %v)", err, want, ran)
	}
}

func TestSerialPoolRunsInline(t *testing.T) {
	p := New(1)
	order := make([]int, 0, 5)
	if err := p.Run(5, func(i int) error {
		order = append(order, i) // safe only because execution is inline
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial pool ran out of order: %v", order)
		}
	}
}

func TestSetWorkersRestore(t *testing.T) {
	before := Default().Workers()
	restore := SetWorkers(1)
	if Default().Workers() != 1 {
		t.Fatal("SetWorkers(1) did not take effect")
	}
	restore()
	if Default().Workers() != before {
		t.Fatalf("restore left %d workers, want %d", Default().Workers(), before)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if New(0).Workers() < 1 || New(-3).Workers() < 1 {
		t.Fatal("non-positive worker counts must clamp to GOMAXPROCS")
	}
}
