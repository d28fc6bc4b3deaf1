package engine

import (
	"crypto/rand"
	"testing"

	"maacs/internal/pairing"
)

func TestStatsJobsCountedSerialAndParallel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pre := SnapshotStats()
		if err := New(workers).Run(17, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		d := SnapshotStats().Delta(pre)
		if d.Jobs != 17 {
			t.Fatalf("workers=%d: %d jobs counted, want 17", workers, d.Jobs)
		}
	}
	// Empty runs schedule nothing.
	pre := SnapshotStats()
	if err := New(4).Run(0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d := SnapshotStats().Delta(pre); d.Jobs != 0 {
		t.Fatalf("empty run counted %d jobs", d.Jobs)
	}
}

func TestStatsMonotonicAndDeltaAdd(t *testing.T) {
	a := SnapshotStats()
	_ = New(2).Run(5, func(int) error { return nil })
	b := SnapshotStats()
	if b.Jobs < a.Jobs ||
		b.PreparedHits < a.PreparedHits || b.PreparedMisses < a.PreparedMisses ||
		b.ExpHits < a.ExpHits || b.ExpMisses < a.ExpMisses {
		t.Fatalf("counters went backwards: %+v -> %+v", a, b)
	}
	d := b.Delta(a)
	if got := a.Add(d); got != b {
		t.Fatalf("a + (b-a) = %+v, want %+v", got, b)
	}
}

func TestStatsPreparedCacheCountersAcrossPools(t *testing.T) {
	p := pairing.Test()
	a, _, err := p.RandomG(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := randomPairs(t, p, 6)

	// pairAll pairs a against every b on pool, one job per pairing, with a's
	// preparation served through the cache, the way re-encryption pairs
	// one UK1 against every stored ciphertext.
	pairAll := func(pool *Pool) []*pairing.GT {
		pre := Prepared(a)
		out := make([]*pairing.GT, len(bs))
		if err := pool.Run(len(bs), func(i int) error {
			gt, err := pre.Pair(bs[i])
			out[i] = gt
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// First use of a fresh point: at least one miss, and one job per pairing.
	pre := SnapshotStats()
	serial := pairAll(New(1))
	d1 := SnapshotStats().Delta(pre)
	if d1.PreparedMisses == 0 {
		t.Fatalf("fresh point served without a miss: %+v", d1)
	}
	if d1.Jobs != uint64(len(bs)) {
		t.Fatalf("serial run scheduled %d jobs, want %d", d1.Jobs, len(bs))
	}

	// Same point on a parallel pool: served from cache, same job count, and
	// bit-identical results — the schedule never leaks into the output.
	pre = SnapshotStats()
	parallel := pairAll(New(4))
	d2 := SnapshotStats().Delta(pre)
	if d2.PreparedHits == 0 || d2.PreparedMisses != 0 {
		t.Fatalf("cached point not served from cache: %+v", d2)
	}
	if d2.Jobs != d1.Jobs {
		t.Fatalf("parallel scheduled %d jobs, serial %d", d2.Jobs, d1.Jobs)
	}
	for i := range serial {
		if !serial[i].Equal(parallel[i]) {
			t.Fatalf("pairing %d diverged between serial and parallel", i)
		}
	}
}

func TestMeasureAttributesWorkAndWallTime(t *testing.T) {
	d, err := Measure(func() error {
		return New(2).Run(9, func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 9 {
		t.Fatalf("measured %d jobs, want 9", d.Jobs)
	}
	if d.WallNs < 0 {
		t.Fatalf("negative wall time %d", d.WallNs)
	}
}
