package engine

import (
	"errors"
	"fmt"
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

func TestRunCancelsAfterFailure(t *testing.T) {
	p := New(2)
	var ran atomic.Int32
	err := p.Run(10_000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatal("no jobs were skipped after the failure")
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
