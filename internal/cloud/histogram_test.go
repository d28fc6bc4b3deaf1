package cloud

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{histBaseNs, 0},
		{histBaseNs + 1, 1},
		{2 * histBaseNs, 1},
		{2*histBaseNs + 1, 2},
		{histBaseNs << 10, 10},
		{histBaseNs<<24 - 1, 24},
		{histBaseNs << 24, 24},
		{histBaseNs<<24 + 1, histBuckets},
		{math.MaxInt64, histBuckets},
	}
	for _, c := range cases {
		if got := histBucketIndex(c.ns); got != c.want {
			t.Errorf("histBucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	var h LatencyHistogram
	h.Observe(5 * time.Microsecond)  // bucket 0
	h.Observe(10 * time.Microsecond) // bucket 0 (boundary is inclusive)
	h.Observe(15 * time.Microsecond) // bucket 1
	h.Observe(1 * time.Millisecond)  // bucket 7 (10µs<<7 = 1.28ms)
	h.Observe(200 * time.Second)     // overflow: past 10µs<<24 ≈ 168s

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count %d, want 5", s.Count)
	}
	wantSum := (5*time.Microsecond + 10*time.Microsecond + 15*time.Microsecond +
		time.Millisecond + 200*time.Second).Nanoseconds()
	if s.SumNs != wantSum {
		t.Fatalf("sum %d, want %d", s.SumNs, wantSum)
	}
	// Buckets are cumulative and trimmed after every finite observation is
	// covered (bucket 7 here); the overflow shows only in Count.
	if len(s.Buckets) != 8 {
		t.Fatalf("got %d buckets, want 8: %+v", len(s.Buckets), s.Buckets)
	}
	if s.Buckets[0].Count != 2 || s.Buckets[1].Count != 3 || s.Buckets[6].Count != 3 || s.Buckets[7].Count != 4 {
		t.Fatalf("cumulative counts wrong: %+v", s.Buckets)
	}
	prev := 0.0
	for _, b := range s.Buckets {
		if b.LE <= prev {
			t.Fatalf("bucket boundaries not increasing: %+v", s.Buckets)
		}
		prev = b.LE
	}
	if s.Buckets[0].LE != 1e-5 {
		t.Fatalf("first boundary %g, want 1e-05", s.Buckets[0].LE)
	}

	var empty LatencyHistogram
	es := empty.Snapshot()
	if es.Count != 0 || es.SumNs != 0 || len(es.Buckets) != 0 {
		t.Fatalf("empty snapshot not empty: %+v", es)
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines (run
// under -race by check.sh) and checks nothing is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h LatencyHistogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i%2_000_000) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count %d, want %d", s.Count, goroutines*per)
	}
	if got := s.Buckets[len(s.Buckets)-1].Count; got != s.Count {
		t.Fatalf("last bucket %d, want every finite observation (%d)", got, s.Count)
	}
}
