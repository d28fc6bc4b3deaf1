package cloud

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cloneWithID builds a record sharing rec's (immutable) components under a
// fresh ID/owner — cheap fixture multiplication without re-running CP-ABE.
func cloneWithID(rec *Record, id, ownerID string) *Record {
	cl := rec.snapshot()
	cl.ID = id
	cl.OwnerID = ownerID
	return cl
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFileStoreGroupCommitStress hammers one FileStore with concurrent
// Put/Delete/ReplaceIfUnchanged traffic (run under -race by
// scripts/check.sh): every acknowledged mutation must be durable and the
// final state must survive a reopen byte-for-byte.
func TestFileStoreGroupCommitStress(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	fs.SetSegmentBytes(8 << 10) // force rotations under load

	const writers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, writers*rounds*3)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := fmt.Sprintf("owner-%d", w)
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("w%02d-r%02d", w, r)
				if err := fs.Put(cloneWithID(recs[0], id, owner)); err != nil {
					errc <- err
					return
				}
				live, _ := fs.Get(id)
				if err := fs.ReplaceIfUnchanged(owner, []CTSwap{
					{RecordID: id, Index: 0, Expect: live.Components[0].CT, New: live.Components[0].CT.Clone()},
				}); err != nil {
					errc <- err
					return
				}
				if r%2 == 1 {
					if _, err := fs.Delete(id, owner); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	wantLen := writers * rounds / 2 // odd rounds deleted their record
	if got := fs.Len(); got != wantLen {
		t.Fatalf("len %d, want %d", got, wantLen)
	}
	want := fs.Records()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpenFileStore(t, sys, dir)
	defer re.Close()
	sameRecords(t, want, re.Records())
}

// TestFileStoreGroupCommitCoalesces pins the fsync economics: while the
// leader of batch 1 is stalled inside its write, four more writers enqueue —
// and all four must ride ONE follow-up write+fsync. 5 mutations, 2 fsyncs.
func TestFileStoreGroupCommitCoalesces(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	fs := mustOpenFileStore(t, sys, t.TempDir())
	defer fs.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	fs.writeHook = func(w io.Writer, buf []byte) error {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		_, err := w.Write(buf)
		return err
	}

	base := fs.Info().WALFsyncs
	var wg sync.WaitGroup
	errs := make([]error, 5)
	put := func(i int) {
		defer wg.Done()
		errs[i] = fs.Put(cloneWithID(recs[0], fmt.Sprintf("rec-%d", i), "owner-1"))
	}
	wg.Add(1)
	go put(0)
	<-entered // leader is mid-write under muW
	for i := 1; i < 5; i++ {
		wg.Add(1)
		go put(i)
	}
	// Wait until all four followers are staged into the pending batch.
	waitFor(t, "followers to enqueue", func() bool {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.pending != nil && len(fs.pending.applies) == 4
	})
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if got := fs.Info().WALFsyncs - base; got != 2 {
		t.Fatalf("5 concurrent puts cost %d fsyncs, want 2 (leader + one coalesced batch)", got)
	}
	if fs.Len() != 5 {
		t.Fatalf("len %d, want 5", fs.Len())
	}
}

// TestFileStoreInfoDuringStalledCommit: Info must answer from atomics while
// a commit is stalled holding the write path — a sick disk must not take
// /healthz down with it.
func TestFileStoreInfoDuringStalledCommit(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	fs := mustOpenFileStore(t, sys, t.TempDir())
	defer fs.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	fs.writeHook = func(w io.Writer, buf []byte) error {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		_, err := w.Write(buf)
		return err
	}
	done := make(chan error, 1)
	go func() { done <- fs.Put(recs[0].snapshot()) }()
	<-entered

	infoC := make(chan StoreInfo, 1)
	go func() { infoC <- fs.Info() }()
	select {
	case info := <-infoC:
		if info.Backend != "file" {
			t.Fatalf("info %+v", info)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Info blocked behind a stalled commit")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreAppendFaultTruncates injects a write failure that leaves half
// a frame on disk: the mutation must fail, the partial frame must be scrubbed
// so later appends start at the committed offset, and a reopen must replay
// cleanly — a transient I/O error must not become permanent ErrWALCorrupt.
func TestFileStoreAppendFaultTruncates(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)

	var failing atomic.Bool
	fs.writeHook = func(w io.Writer, buf []byte) error {
		if failing.Load() {
			w.Write(buf[:len(buf)/2]) // the torn garbage a real crash leaves
			return errors.New("injected write fault")
		}
		_, err := w.Write(buf)
		return err
	}
	if err := fs.Put(cloneWithID(recs[0], "rec-ok", "owner-1")); err != nil {
		t.Fatal(err)
	}
	before := fs.Info().WALBytes

	failing.Store(true)
	err := fs.Put(cloneWithID(recs[0], "rec-fail", "owner-1"))
	if err == nil || !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("faulted put: got %v, want wal append error", err)
	}
	if _, ok := fs.Get("rec-fail"); ok {
		t.Fatal("failed put is visible")
	}
	if got := fs.Info().WALBytes; got != before {
		t.Fatalf("wal bytes %d after failed append, want %d", got, before)
	}
	if st, _ := os.Stat(lastWALSegmentPath(t, dir)); st.Size() != before {
		t.Fatalf("segment holds %d bytes after failed append, want %d (partial frame not scrubbed)", st.Size(), before)
	}

	failing.Store(false)
	if err := fs.Put(cloneWithID(recs[0], "rec-after", "owner-1")); err != nil {
		t.Fatal(err)
	}
	want := fs.Records()
	fs.Close()
	re, err := OpenFileStore(sys, dir)
	if err != nil {
		t.Fatalf("reopen after append fault: %v", err)
	}
	defer re.Close()
	sameRecords(t, want, re.Records())
}

// TestFileStoreGroupCommitChainFail: a batch staged behind a failing group
// commit validated against state that never became durable, so it must fail
// as a group — and the overlay must come out clean, letting the same IDs
// commit afterwards.
func TestFileStoreGroupCommitChainFail(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	fs := mustOpenFileStore(t, sys, t.TempDir())
	defer fs.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var arm atomic.Bool
	fs.writeHook = func(w io.Writer, buf []byte) error {
		if arm.CompareAndSwap(true, false) {
			close(entered)
			<-release
			return errors.New("injected write fault")
		}
		_, err := w.Write(buf)
		return err
	}
	arm.Store(true)
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- fs.Put(cloneWithID(recs[0], "rec-a", "owner-1")) }()
	<-entered
	followerErr := make(chan error, 1)
	go func() { followerErr <- fs.Put(cloneWithID(recs[0], "rec-b", "owner-1")) }()
	waitFor(t, "follower to enqueue", func() bool {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.pending != nil && len(fs.pending.applies) == 1
	})
	close(release)
	if err := <-leaderErr; err == nil || !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("leader: got %v, want wal append error", err)
	}
	if err := <-followerErr; err == nil || !strings.Contains(err.Error(), "aborted behind failed group commit") {
		t.Fatalf("follower: got %v, want chain-fail error", err)
	}
	// Nothing leaked into the overlay or the index: both IDs are free again.
	for _, id := range []string{"rec-a", "rec-b"} {
		if err := fs.Put(cloneWithID(recs[0], id, "owner-1")); err != nil {
			t.Fatalf("re-put %s after chain fail: %v", id, err)
		}
	}
}

// TestFileStoreCompactFaultDecoupled is the regression for the PR 6 ack bug:
// a failing compaction must never fail a durably committed mutation — Delete
// in particular must still return the deleted record. The failure surfaces
// as StoreInfo.CompactErr instead, and clears when compaction recovers.
func TestFileStoreCompactFaultDecoupled(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	fs := mustOpenFileStore(t, sys, t.TempDir())
	defer fs.Close()

	var failing atomic.Bool
	failing.Store(true)
	fs.compactHook = func(stage string) error {
		if failing.Load() && stage == compactStageBegin {
			return errors.New("injected compaction fault")
		}
		return nil
	}
	fs.SetCompactThreshold(1) // every commit wakes the (sick) compactor

	if err := fs.Put(cloneWithID(recs[0], "rec-a", "owner-1")); err != nil {
		t.Fatalf("put with failing compaction: %v", err)
	}
	if err := fs.Put(cloneWithID(recs[0], "rec-b", "owner-1")); err != nil {
		t.Fatalf("put with failing compaction: %v", err)
	}
	del, err := fs.Delete("rec-b", "owner-1")
	if err != nil {
		t.Fatalf("delete with failing compaction: %v", err)
	}
	if del == nil || del.ID != "rec-b" {
		t.Fatalf("delete returned %+v, want the deleted record", del)
	}
	waitFor(t, "CompactErr to surface", func() bool {
		return fs.Info().CompactErr != ""
	})
	if !strings.Contains(fs.Info().CompactErr, "injected compaction fault") {
		t.Fatalf("CompactErr %q", fs.Info().CompactErr)
	}

	failing.Store(false)
	if err := fs.Compact(); err != nil {
		t.Fatal(err)
	}
	info := fs.Info()
	if info.CompactErr != "" {
		t.Fatalf("CompactErr %q after recovery, want cleared", info.CompactErr)
	}
	if info.Compactions == 0 {
		t.Fatal("recovered compaction not counted")
	}
}

// TestFileStoreCompactionCrashBeforeDelete: failing (crashing) after the
// snapshot is installed but before the folded segments are deleted must be
// harmless — replay over the new snapshot re-applies entries it already
// contains and converges.
func TestFileStoreCompactionCrashBeforeDelete(t *testing.T) {
	sys, recs := storeFixture(t, 3)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	var failing atomic.Bool
	failing.Store(true)
	fs.compactHook = func(stage string) error {
		if failing.Load() && stage == compactStageInstalled {
			return errors.New("injected crash between install and delete")
		}
		return nil
	}
	for _, rec := range recs {
		if err := fs.Put(rec.snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Delete("rec-01", "owner-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Compact(); err == nil {
		t.Fatal("compaction ignored the injected fault")
	}
	// Snapshot installed, segments still on disk — the crash image.
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatal("snapshot not installed before the fault point")
	}
	want := fs.Records()
	fs.Close()

	re := mustOpenFileStore(t, sys, dir)
	defer re.Close()
	sameRecords(t, want, re.Records())
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := re.Info().WALBytes; got != 0 {
		t.Fatalf("wal %d bytes after recovery compaction, want 0", got)
	}
}

// TestFileStoreSegmentRotation: commits past the rotation threshold land in
// fresh wal-%08d.maacs segments, and a reopen replays them in order.
func TestFileStoreSegmentRotation(t *testing.T) {
	sys, recs := storeFixture(t, 4)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	fs.SetSegmentBytes(1) // every commit after the first rotates
	for _, rec := range recs {
		if err := fs.Put(rec.snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Info().WALSegments; got != len(recs) {
		t.Fatalf("%d segments after %d puts at threshold 1, want %d", got, len(recs), len(recs))
	}
	for seq := 1; seq <= len(recs); seq++ {
		if _, err := os.Stat(filepath.Join(dir, walSegmentName(uint64(seq)))); err != nil {
			t.Fatalf("segment %d missing: %v", seq, err)
		}
	}
	want := fs.Records()
	fs.Close()

	re := mustOpenFileStore(t, sys, dir)
	defer re.Close()
	sameRecords(t, want, re.Records())
	if got := re.Info().WALSegments; got != len(recs) {
		t.Fatalf("%d segments after reopen, want %d", got, len(recs))
	}
	// And the reopened store keeps appending to the highest segment.
	if err := re.Put(cloneWithID(recs[0], "rec-99", "owner-1")); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreRefusesLegacyWAL: a data directory holding the retired
// single-file log (wal.maacs), alone or beside segments, is refused with
// ErrWALCorrupt naming the file, and is left as it was — never opened as an
// empty store over the old log.
func TestFileStoreRefusesLegacyWAL(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	alone, mixed := t.TempDir(), t.TempDir()
	fs := mustOpenFileStore(t, sys, mixed)
	if err := fs.Put(recs[0].snapshot()); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	for _, dir := range []string{alone, mixed} {
		legacy := filepath.Join(dir, legacyWALFileName)
		if err := os.WriteFile(legacy, []byte("old log"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFileStore(sys, dir)
		if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), legacy) ||
			!strings.Contains(err.Error(), "recreate the store") {
			t.Fatalf("got %v, want ErrWALCorrupt naming %s", err, legacy)
		}
		if data, err := os.ReadFile(legacy); err != nil || string(data) != "old log" {
			t.Fatalf("legacy wal changed: %q, %v", data, err)
		}
	}
	if _, err := os.Stat(filepath.Join(alone, walSegmentName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused open created a segment (stat: %v)", err)
	}
}

// copyDataDir snapshots a live store's directory the way a crash freezes it:
// segments first (append-only, so a read sees a prefix — at worst a torn
// tail), snapshot last (tmp+rename, so a read sees a complete file). A
// segment deleted mid-copy was folded into a snapshot that is copied later,
// so the image stays self-consistent.
func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	seqs, err := listWALSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		name := walSegmentName(seq)
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, os.ErrNotExist) {
			continue // compacted away mid-copy; the snapshot has it
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(src, snapshotFileName))
	if err == nil {
		err = os.WriteFile(filepath.Join(dst, snapshotFileName), data, 0o644)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
}

// TestFileStoreKillAnywhere is the kill-at-any-point recovery check: while a
// writer streams mutations through small segments with aggressive background
// compaction, the test repeatedly freezes the directory mid-flight (the
// crash image) and reopens the copy — every acknowledged record must be
// there, every acknowledged delete must have stuck, at every point.
func TestFileStoreKillAnywhere(t *testing.T) {
	sys, recs := storeFixture(t, 1)
	dir := t.TempDir()
	fs := mustOpenFileStore(t, sys, dir)
	defer fs.Close()
	fs.SetSegmentBytes(1 << 10)     // a few records per segment
	fs.SetCompactThreshold(2 << 10) // compaction fires repeatedly mid-run

	var mu sync.Mutex
	acked := make(map[string]bool) // id → present (true) or deleted (false)
	const total = 48
	var rotatedTo int64
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("rec-%03d", i)
		if err := fs.Put(cloneWithID(recs[0], id, "owner-1")); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		acked[id] = true
		mu.Unlock()
		if i%3 == 2 {
			if _, err := fs.Delete(id, "owner-1"); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			acked[id] = false
			mu.Unlock()
		}
		if n := fs.Info().WALSegments; int64(n) > rotatedTo {
			rotatedTo = int64(n)
		}

		// "Kill" the store every few commits: freeze the directory and
		// recover from the image.
		if i%5 != 4 {
			continue
		}
		mu.Lock()
		wantState := make(map[string]bool, len(acked))
		for id, present := range acked {
			wantState[id] = present
		}
		mu.Unlock()
		crash := t.TempDir()
		copyDataDir(t, dir, crash)
		re, err := OpenFileStore(sys, crash)
		if err != nil {
			t.Fatalf("kill point %d: reopen: %v", i, err)
		}
		for id, present := range wantState {
			if _, ok := re.Get(id); ok != present {
				t.Fatalf("kill point %d: record %s present=%v, want %v", i, id, ok, present)
			}
		}
		re.Close()
	}
	if rotatedTo < 2 {
		t.Fatalf("workload never rotated segments (max %d) — thresholds too lax for the test to mean anything", rotatedTo)
	}
	waitFor(t, "background compaction to run", func() bool {
		return fs.Info().Compactions > 0
	})
	if got := fs.Info().CompactErr; got != "" {
		t.Fatalf("background compaction failed: %s", got)
	}
}
