package cloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"maacs/internal/core"
	"maacs/internal/wire"
)

// FileStore is the crash-safe file-backed storage engine: an in-memory index
// (a MemStore) fronting a segmented append-only write-ahead log plus a
// periodic snapshot file, all in one data directory.
//
//	<dir>/snapshot.maacs     — full state: snapshotMagic, a record count and
//	                           each record as encodeRecord writes it
//	<dir>/wal-00000042.maacs — framed entries appended since that snapshot,
//	                           split into fixed-threshold segments
//
// Every mutation is logged and fsynced before it becomes visible in the
// index, so a committed operation survives a crash; Open replays the WAL
// segments in sequence order over the snapshot and discards a torn tail
// entry on the highest segment (a crash mid-append). WAL entries reuse the
// snapshot wire format for record bodies, framed as
//
//	uint32-LE payload length | uint32-LE IEEE CRC of payload | payload
//	payload = uvarint op (1 = put/upsert, 2 = delete) + body
//
// Replay applies puts as upserts and deletes as unconditional removes, so
// re-applying entries already folded into a snapshot (a crash between the
// compaction rename and the segment deletes) converges instead of failing.
//
// Concurrent mutations commit through a group-commit queue: callers stage
// their framed entries into a shared pending batch under a small queue
// mutex, and the first staged caller becomes the leader, performing one
// write+fsync for the whole batch and waking every waiter with the shared
// result — N concurrent writers cost ~1 fsync instead of N. When the active
// segment outgrows the rotation threshold the leader seals it and starts a
// fresh one; when the total log outgrows the compaction watermark a
// dedicated background goroutine folds the sealed segments into a fresh
// snapshot (tmp + rename) and deletes them whole — compaction never runs
// inline on a committing writer, and the live segment is never truncated.
//
// Reads (Get, OwnerScan, Records) go straight to the index under its
// read lock and never touch the files — a fetch is never blocked behind an
// fsync — and Info reads only atomics, so health checks return even while a
// commit is stalled on a sick disk. The store assumes a single process owns
// the directory.
type FileStore struct {
	sys *core.System
	dir string

	// mu guards the commit queue: the pending batch, the validation overlay,
	// leader election and the closing flag. It is never held across I/O.
	mu      sync.Mutex
	pending *commitBatch
	overlay map[string]pendingRec
	leader  bool
	closing bool

	// muW is the commit critical section: exactly one leader (or the
	// compactor taking its consistency cut, or Close) holds it across the
	// batch write+fsync+publish, so the index always reflects every entry
	// of every sealed segment by the time muW is released.
	muW        sync.Mutex
	active     *os.File
	activeSeq  uint64
	activeOff  int64 // committed bytes in the active segment
	sealedSegs []walSegment
	fileClosed bool
	failed     error // sticky: post-fault truncation failed, WAL tail unknown

	mem *MemStore

	// Tunables and observability counters are atomics so Info and the
	// rotation/compaction checks never queue behind muW.
	segmentAt   atomic.Int64
	compactAt   atomic.Int64
	walBytes    atomic.Int64
	records     atomic.Int64
	segments    atomic.Int64
	fsyncs      atomic.Uint64
	compactions atomic.Uint64
	compactErr  atomic.Pointer[string]

	// Background compaction lifecycle.
	muCompact sync.Mutex
	compactC  chan struct{}
	quitC     chan struct{}
	wg        sync.WaitGroup

	// Test hooks (set before first use; nil in production).
	writeHook   func(w io.Writer, buf []byte) error
	compactHook func(stage string) error
}

// walSegment is one sealed (no longer written) WAL segment.
type walSegment struct {
	seq   uint64
	bytes int64
}

// pendingRec is one validation-overlay entry: a mutation staged but not yet
// fsynced. rec == nil marks a pending delete.
type pendingRec struct {
	rec   *Record
	owner *commitBatch
}

// overlayWrite is one overlay entry a staged mutation installs.
type overlayWrite struct {
	id  string
	rec *Record
}

// commitBatch is one group commit in flight: the framed bytes of every
// staged mutation, the index publishes to run after the fsync, and the
// shared result every staged caller waits on.
type commitBatch struct {
	buf     []byte
	applies []func()
	keys    []string // overlay keys owned by this batch
	done    chan struct{}
	err     error
}

const (
	legacyWALFileName = "wal.maacs"
	snapshotFileName  = "snapshot.maacs"
	walSegmentPrefix  = "wal-"
	walSegmentSuffix  = ".maacs"

	walOpPut    = 1
	walOpDelete = 2

	// defaultCompactThreshold is the total WAL size that triggers background
	// compaction into a fresh snapshot file.
	defaultCompactThreshold = 4 << 20
	// defaultSegmentBytes is the rotation threshold: a batch that would push
	// the active segment past it goes into a fresh segment instead.
	defaultSegmentBytes = 1 << 20

	// compactHook stages (test fault injection).
	compactStageBegin     = "begin"     // before the snapshot is serialized
	compactStageInstalled = "installed" // snapshot renamed in, segments not yet deleted
)

// ErrWALCorrupt reports a WAL whose non-tail contents fail validation.
var ErrWALCorrupt = errors.New("cloud: write-ahead log corrupt")

// walSegmentName renders the file name of segment seq.
func walSegmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", walSegmentPrefix, seq, walSegmentSuffix)
}

// parseWALSegment extracts the sequence number from a segment file name.
func parseWALSegment(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, walSegmentPrefix)
	if !ok {
		return 0, false
	}
	num, ok := strings.CutSuffix(rest, walSegmentSuffix)
	if !ok || num == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// OpenFileStore opens (creating if needed) a file store in dir. It loads the
// snapshot file, replays the WAL segments in order — truncating a torn tail
// entry left by a crash mid-append on the last segment — starts the
// background compactor, and is then ready to serve. A directory holding the
// retired single-file wal.maacs layout is refused with ErrWALCorrupt.
func OpenFileStore(sys *core.System, dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cloud: create data dir: %w", err)
	}
	fs := &FileStore{
		sys:      sys,
		dir:      dir,
		mem:      NewMemStore(),
		overlay:  make(map[string]pendingRec),
		compactC: make(chan struct{}, 1),
		quitC:    make(chan struct{}),
	}
	fs.compactAt.Store(defaultCompactThreshold)
	fs.segmentAt.Store(defaultSegmentBytes)
	if err := fs.loadSnapshotFile(); err != nil {
		return nil, err
	}
	if err := fs.openAndReplayWAL(); err != nil {
		return nil, err
	}
	fs.records.Store(int64(fs.mem.Len()))
	fs.wg.Add(1)
	go fs.compactLoop()
	if fs.walBytes.Load() >= fs.compactAt.Load() {
		fs.pokeCompactor()
	}
	return fs, nil
}

// SetCompactThreshold sets the total WAL size (bytes) whose crossing wakes
// the background compactor. n <= 0 restores the default. Compaction also
// runs on demand via Compact.
func (f *FileStore) SetCompactThreshold(n int64) {
	if n <= 0 {
		n = defaultCompactThreshold
	}
	f.compactAt.Store(n)
}

// SetSegmentBytes sets the WAL segment rotation threshold (bytes). n <= 0
// restores the default.
func (f *FileStore) SetSegmentBytes(n int64) {
	if n <= 0 {
		n = defaultSegmentBytes
	}
	f.segmentAt.Store(n)
}

// loadSnapshotFile restores the snapshot file into the index, if one exists.
func (f *FileStore) loadSnapshotFile() error {
	path := filepath.Join(f.dir, snapshotFileName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cloud: read snapshot file: %w", err)
	}
	d := wire.NewDecoder(data)
	if magic := d.String(); magic != snapshotMagic {
		return fmt.Errorf("cloud: %s is not a maacs snapshot (magic %q)", path, magic)
	}
	n := d.Count(3)
	if d.Err() != nil {
		return fmt.Errorf("cloud: snapshot file header: %w", d.Err())
	}
	for i := 0; i < n; i++ {
		rec, err := decodeRecord(f.sys, d)
		if err != nil {
			return fmt.Errorf("cloud: snapshot file record %d: %w", i, err)
		}
		f.mem.upsert(rec)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("cloud: snapshot file: %w", err)
	}
	return nil
}

// listWALSegments returns the directory's segment sequence numbers sorted
// ascending.
func listWALSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cloud: list wal segments: %w", err)
	}
	var seqs []uint64
	for _, ent := range ents {
		if seq, ok := parseWALSegment(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openAndReplayWAL discovers the segments, applies every complete entry in
// sequence order, and truncates the highest segment after its last complete
// entry so a torn tail never confuses a later replay. A torn frame or bad
// checksum anywhere else is an error — silently dropping interior entries
// would resurrect deleted records or lose committed ones.
func (f *FileStore) openAndReplayWAL() error {
	// A single wal.maacs is the pre-segmentation layout, written under
	// parameter sets no current build decodes. Refuse it: opening without it
	// would serve an empty store over the old records.
	legacy := filepath.Join(f.dir, legacyWALFileName)
	if _, err := os.Stat(legacy); err == nil {
		return fmt.Errorf("%w: %s is the retired single-file layout, whose records no current parameter set decodes; recreate the store", ErrWALCorrupt, legacy)
	}

	seqs, err := listWALSegments(f.dir)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		seqs = []uint64{1}
		fd, err := os.OpenFile(filepath.Join(f.dir, walSegmentName(1)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("cloud: create wal segment: %w", err)
		}
		if err := syncDir(f.dir); err != nil {
			fd.Close()
			return fmt.Errorf("cloud: sync data dir: %w", err)
		}
		f.active, f.activeSeq, f.activeOff = fd, 1, 0
		f.segments.Store(1)
		return nil
	}
	for i, seq := range seqs {
		path := filepath.Join(f.dir, walSegmentName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("cloud: read wal segment %d: %w", seq, err)
		}
		last := i == len(seqs)-1
		good, err := f.replaySegment(seq, data, last)
		if err != nil {
			return err
		}
		if !last {
			f.sealedSegs = append(f.sealedSegs, walSegment{seq: seq, bytes: int64(len(data))})
			f.walBytes.Add(int64(len(data)))
			continue
		}
		wal, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("cloud: open wal segment %d: %w", seq, err)
		}
		if good < len(data) {
			if err := wal.Truncate(int64(good)); err != nil {
				wal.Close()
				return fmt.Errorf("cloud: truncate torn wal tail: %w", err)
			}
		}
		if _, err := wal.Seek(int64(good), io.SeekStart); err != nil {
			wal.Close()
			return fmt.Errorf("cloud: seek wal: %w", err)
		}
		f.active, f.activeSeq, f.activeOff = wal, seq, int64(good)
		f.walBytes.Add(int64(good))
	}
	f.segments.Store(int64(len(seqs)))
	return nil
}

// replaySegment applies one segment's complete entries to the index and
// returns the offset after the last complete entry. A torn tail (short
// header, short payload, or a bad CRC on the final frame) is tolerated only
// when allowTorn is set — only the highest segment is ever appended to, so a
// torn frame in a sealed segment is corruption.
func (f *FileStore) replaySegment(seq uint64, data []byte, allowTorn bool) (int, error) {
	good := 0
	for off := 0; off < len(data); {
		if len(data)-off < 8 {
			if !allowTorn {
				return 0, fmt.Errorf("%w: torn frame header in sealed segment %d", ErrWALCorrupt, seq)
			}
			break
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if uint32(len(data)-off-8) < length {
			if !allowTorn {
				return 0, fmt.Errorf("%w: torn payload in sealed segment %d", ErrWALCorrupt, seq)
			}
			break
		}
		payload := data[off+8 : off+8+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			// A CRC mismatch on the final frame of the final segment is a
			// torn append (the length landed but the payload didn't finish);
			// anywhere earlier it is corruption.
			if allowTorn && off+8+int(length) == len(data) {
				break
			}
			return 0, fmt.Errorf("%w: bad checksum at offset %d of segment %d", ErrWALCorrupt, off, seq)
		}
		if err := f.applyWALEntry(payload); err != nil {
			return 0, fmt.Errorf("%w: entry at offset %d of segment %d: %v", ErrWALCorrupt, off, seq, err)
		}
		off += 8 + int(length)
		good = off
	}
	return good, nil
}

// applyWALEntry folds one decoded entry into the index.
func (f *FileStore) applyWALEntry(payload []byte) error {
	d := wire.NewDecoder(payload)
	switch op := d.Uvarint(); op {
	case walOpPut:
		rec, err := decodeRecord(f.sys, d)
		if err != nil {
			return err
		}
		if err := d.Done(); err != nil {
			return err
		}
		f.mem.upsert(rec)
		return nil
	case walOpDelete:
		id := d.String()
		if err := d.Done(); err != nil {
			return err
		}
		f.mem.remove(id)
		return nil
	default:
		return fmt.Errorf("unknown op %d", op)
	}
}

// lookupLocked resolves id through the pending overlay first, then the
// published index, so a mutation validates against every mutation staged
// before it — not just the fsynced ones. Caller holds f.mu.
func (f *FileStore) lookupLocked(id string) (*Record, bool) {
	if e, ok := f.overlay[id]; ok {
		return e.rec, e.rec != nil
	}
	return f.mem.Get(id)
}

// commit runs one mutation through the group-commit queue. stage runs under
// the queue mutex with a pending-aware view of the store (lookupLocked); it
// returns the WAL payloads to frame, the overlay entries making the
// mutation visible to later validations, and the index publish to run after
// the batch fsyncs. The caller either leads the batch (one write+fsync for
// everything staged so far) or waits for the leader's shared result.
func (f *FileStore) commit(stage func() ([][]byte, []overlayWrite, func(), error)) error {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return ErrStoreClosed
	}
	payloads, writes, apply, err := stage()
	if err != nil {
		f.mu.Unlock()
		return err
	}
	b := f.pending
	if b == nil {
		b = &commitBatch{done: make(chan struct{})}
		f.pending = b
	}
	for _, p := range payloads {
		b.buf = appendFrame(b.buf, p)
	}
	if apply != nil {
		b.applies = append(b.applies, apply)
	}
	for _, w := range writes {
		f.overlay[w.id] = pendingRec{rec: w.rec, owner: b}
		b.keys = append(b.keys, w.id)
	}
	lead := !f.leader
	if lead {
		f.leader = true
	}
	f.mu.Unlock()
	if lead {
		f.lead()
	} else {
		<-b.done
	}
	return b.err
}

// lead drains the commit queue: grab the pending batch, commit it, repeat
// until no more mutations were staged while the previous batch fsynced.
func (f *FileStore) lead() {
	f.muW.Lock()
	defer f.muW.Unlock()
	for {
		f.mu.Lock()
		b := f.pending
		f.pending = nil
		if b == nil {
			f.leader = false
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
		f.commitBatch(b)
	}
}

// commitBatch makes one batch durable (write + fsync, rotating first if the
// active segment is full), publishes its entries to the index, retires its
// overlay entries, and wakes its waiters. Caller holds muW.
func (f *FileStore) commitBatch(b *commitBatch) {
	err := f.appendAndSync(b.buf)
	if err == nil {
		for _, apply := range b.applies {
			apply()
		}
	}
	f.mu.Lock()
	f.dropOverlayLocked(b)
	if err != nil {
		// The queued batch validated against this batch's overlay entries
		// (a delete of a put that never committed, a swap on it, …), so its
		// staged state may describe a history that now never happened. Fail
		// it as a group; writers staging after this cleanup see a clean
		// view again.
		if p := f.pending; p != nil {
			f.pending = nil
			f.dropOverlayLocked(p)
			p.err = fmt.Errorf("cloud: aborted behind failed group commit: %w", err)
			close(p.done)
		}
	}
	f.mu.Unlock()
	b.err = err
	close(b.done)
	if err == nil && f.walBytes.Load() >= f.compactAt.Load() {
		f.pokeCompactor()
	}
}

// dropOverlayLocked retires the overlay entries still owned by b. Caller
// holds f.mu.
func (f *FileStore) dropOverlayLocked(b *commitBatch) {
	for _, k := range b.keys {
		if e, ok := f.overlay[k]; ok && e.owner == b {
			delete(f.overlay, k)
		}
	}
}

// appendAndSync writes one framed batch to the active segment and fsyncs
// it, rotating to a fresh segment first when the active one is full. On a
// write or sync failure the segment is truncated back to the last committed
// offset, so a transient I/O error never leaves a partial frame for a later
// append to bury as interior corruption. Caller holds muW.
func (f *FileStore) appendAndSync(buf []byte) error {
	if f.fileClosed {
		return ErrStoreClosed
	}
	if f.failed != nil {
		return f.failed
	}
	if len(buf) == 0 {
		return nil
	}
	if f.activeOff > 0 && f.activeOff+int64(len(buf)) > f.segmentAt.Load() {
		if err := f.rotateLocked(); err != nil {
			return err
		}
	}
	var err error
	if f.writeHook != nil {
		err = f.writeHook(f.active, buf)
	} else {
		_, err = f.active.Write(buf)
	}
	if err == nil {
		if err = f.active.Sync(); err == nil {
			f.fsyncs.Add(1)
		}
	}
	if err != nil {
		// Scrub whatever landed: the next successful append must start at
		// the last committed offset, not after garbage.
		if terr := f.active.Truncate(f.activeOff); terr != nil {
			f.failed = fmt.Errorf("cloud: wal unusable: truncate after failed append: %w", terr)
		} else if _, serr := f.active.Seek(f.activeOff, io.SeekStart); serr != nil {
			f.failed = fmt.Errorf("cloud: wal unusable: seek after failed append: %w", serr)
		}
		return fmt.Errorf("cloud: wal append: %w", err)
	}
	f.activeOff += int64(len(buf))
	f.walBytes.Add(int64(len(buf)))
	return nil
}

// rotateLocked seals the active segment and starts the next one. Caller
// holds muW.
func (f *FileStore) rotateLocked() error {
	next := f.activeSeq + 1
	nf, err := os.OpenFile(filepath.Join(f.dir, walSegmentName(next)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("cloud: create wal segment %d: %w", next, err)
	}
	if err := syncDir(f.dir); err != nil {
		nf.Close()
		return fmt.Errorf("cloud: sync data dir: %w", err)
	}
	if err := f.active.Close(); err != nil {
		nf.Close()
		return fmt.Errorf("cloud: seal wal segment %d: %w", f.activeSeq, err)
	}
	f.sealedSegs = append(f.sealedSegs, walSegment{seq: f.activeSeq, bytes: f.activeOff})
	f.active, f.activeSeq, f.activeOff = nf, next, 0
	f.segments.Add(1)
	return nil
}

// pokeCompactor wakes the background compactor without blocking the
// committing writer.
func (f *FileStore) pokeCompactor() {
	select {
	case f.compactC <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor: it folds sealed segments into
// the snapshot whenever the committed log crosses the watermark, and exits
// on Close.
func (f *FileStore) compactLoop() {
	defer f.wg.Done()
	for {
		select {
		case <-f.quitC:
			return
		case <-f.compactC:
			// The error (if any) is recorded in CompactErr for /healthz;
			// mutations are unaffected — the WAL still holds every
			// committed entry.
			_ = f.compactOnce()
		}
	}
}

// Compact folds the sealed WAL segments into a fresh snapshot file and
// deletes them, synchronously. The background compactor runs the same
// routine on the size watermark.
func (f *FileStore) Compact() error {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return ErrStoreClosed
	}
	f.mu.Unlock()
	return f.compactOnce()
}

// compactOnce serializes compaction runs and records the outcome in the
// health surface: a failure is held in CompactErr until a later run
// succeeds.
func (f *FileStore) compactOnce() error {
	f.muCompact.Lock()
	defer f.muCompact.Unlock()
	err := f.compact()
	switch {
	case err == nil:
		f.compactErr.Store(nil)
	case errors.Is(err, ErrStoreClosed):
		// Shutdown race, not a health signal.
	default:
		s := err.Error()
		f.compactErr.Store(&s)
	}
	return err
}

// compact takes a consistency cut under the commit lock (rotate the active
// segment so everything to fold is sealed, snapshot the index), then does
// all the expensive work — serializing, writing, renaming, deleting whole
// segments — without blocking a single writer. A crash between the snapshot
// rename and the segment deletes only means replaying entries the snapshot
// already contains.
func (f *FileStore) compact() error {
	if err := f.hookCompact(compactStageBegin); err != nil {
		return err
	}
	f.muW.Lock()
	if f.fileClosed {
		f.muW.Unlock()
		return ErrStoreClosed
	}
	if f.activeOff > 0 {
		if err := f.rotateLocked(); err != nil {
			f.muW.Unlock()
			return err
		}
	}
	sealed := append([]walSegment(nil), f.sealedSegs...)
	recs := f.mem.Records()
	f.muW.Unlock()
	if len(sealed) == 0 {
		return nil
	}

	var e wire.Encoder
	e.String(snapshotMagic)
	e.Int(len(recs))
	for _, rec := range recs {
		encodeRecord(&e, rec)
	}
	path := filepath.Join(f.dir, snapshotFileName)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, e.Bytes()); err != nil {
		return fmt.Errorf("cloud: write snapshot file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cloud: install snapshot file: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("cloud: sync data dir: %w", err)
	}
	if err := f.hookCompact(compactStageInstalled); err != nil {
		return err
	}
	// Delete folded segments oldest-first so the survivors always form a
	// suffix of history — the invariant replay relies on.
	var freed int64
	for _, sg := range sealed {
		if err := os.Remove(filepath.Join(f.dir, walSegmentName(sg.seq))); err != nil {
			return fmt.Errorf("cloud: delete wal segment %d: %w", sg.seq, err)
		}
		freed += sg.bytes
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("cloud: sync data dir: %w", err)
	}
	f.muW.Lock()
	f.sealedSegs = f.sealedSegs[len(sealed):]
	f.muW.Unlock()
	f.walBytes.Add(-freed)
	f.segments.Add(-int64(len(sealed)))
	f.compactions.Add(1)
	return nil
}

// hookCompact runs the test fault hook, if any.
func (f *FileStore) hookCompact(stage string) error {
	if f.compactHook == nil {
		return nil
	}
	return f.compactHook(stage)
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	fd, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fd.Write(data); err != nil {
		fd.Close()
		return err
	}
	if err := fd.Sync(); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	fd, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fd.Sync()
	if cerr := fd.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFrame frames one payload (length | CRC | payload) onto buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// encodePutEntry builds the WAL payload for installing rec.
func encodePutEntry(rec *Record) []byte {
	var e wire.Encoder
	e.Uvarint(walOpPut)
	encodeRecord(&e, rec)
	return e.Bytes()
}

// encodeDeleteEntry builds the WAL payload for removing id.
func encodeDeleteEntry(id string) []byte {
	var e wire.Encoder
	e.Uvarint(walOpDelete)
	e.String(id)
	return e.Bytes()
}

// Get reads the index directly — never blocked behind a log append.
func (f *FileStore) Get(id string) (*Record, bool) { return f.mem.Get(id) }

// OwnerScan visits the owner's records in sorted ID order.
func (f *FileStore) OwnerScan(ownerID string, fn func(*Record) bool) {
	f.mem.OwnerScan(ownerID, fn)
}

// Records returns every stored record sorted by ID.
func (f *FileStore) Records() []*Record { return f.mem.Records() }

// Put logs and installs a new record: validate against the pending-aware
// view, ride a group commit, then publish to readers. The result reflects
// only the append+fsync — compaction runs in the background and its health
// is reported via Info, never as a mutation failure.
func (f *FileStore) Put(rec *Record) error {
	return f.commit(func() ([][]byte, []overlayWrite, func(), error) {
		if _, exists := f.lookupLocked(rec.ID); exists {
			return nil, nil, nil, fmt.Errorf("%w: %q", ErrAlreadyStored, rec.ID)
		}
		apply := func() {
			f.mem.upsert(rec)
			f.records.Add(1)
		}
		return [][]byte{encodePutEntry(rec)}, []overlayWrite{{rec.ID, rec}}, apply, nil
	})
}

// Delete logs and removes a record after the owner check.
func (f *FileStore) Delete(id, ownerID string) (*Record, error) {
	var deleted *Record
	err := f.commit(func() ([][]byte, []overlayWrite, func(), error) {
		rec, ok := f.lookupLocked(id)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: %q", ErrRecordNotFound, id)
		}
		if err := checkDeleteOwner(rec, ownerID); err != nil {
			return nil, nil, nil, err
		}
		deleted = rec
		apply := func() {
			f.mem.remove(id)
			f.records.Add(-1)
		}
		return [][]byte{encodeDeleteEntry(id)}, []overlayWrite{{id, nil}}, apply, nil
	})
	if err != nil {
		return nil, err
	}
	return deleted, nil
}

// ReplaceIfUnchanged validates the swaps against the pending-aware view,
// logs every updated record in one group commit, then publishes the new
// records.
func (f *FileStore) ReplaceIfUnchanged(ownerID string, swaps []CTSwap) error {
	return f.commit(func() ([][]byte, []overlayWrite, func(), error) {
		clones, err := swapClones(swaps, f.lookupLocked)
		if err != nil {
			return nil, nil, nil, err
		}
		// Log the post-swap records as puts.
		ids := sortedRecordIDs(clones)
		payloads := make([][]byte, 0, len(clones))
		writes := make([]overlayWrite, 0, len(clones))
		for _, id := range ids {
			payloads = append(payloads, encodePutEntry(clones[id]))
			writes = append(writes, overlayWrite{id, clones[id]})
		}
		apply := func() {
			for _, id := range ids {
				f.mem.upsert(clones[id])
			}
		}
		return payloads, writes, apply, nil
	})
}

// Restore logs and installs a batch of records as one group commit,
// refusing to overwrite any existing ID (including a duplicate within the
// batch). It is the bulk loader for a fresh store; the server never calls
// it.
func (f *FileStore) Restore(recs []*Record) error {
	return f.commit(func() ([][]byte, []overlayWrite, func(), error) {
		seen := make(map[string]bool, len(recs))
		for _, rec := range recs {
			if _, exists := f.lookupLocked(rec.ID); exists || seen[rec.ID] {
				return nil, nil, nil, fmt.Errorf("cloud: restore would overwrite record %q", rec.ID)
			}
			seen[rec.ID] = true
		}
		payloads := make([][]byte, 0, len(recs))
		writes := make([]overlayWrite, 0, len(recs))
		for _, rec := range recs {
			payloads = append(payloads, encodePutEntry(rec))
			writes = append(writes, overlayWrite{rec.ID, rec})
		}
		n := int64(len(recs))
		apply := func() {
			for _, rec := range recs {
				f.mem.upsert(rec)
			}
			f.records.Add(n)
		}
		return payloads, writes, apply, nil
	})
}

// Info describes the backend from atomics alone — it never queues behind an
// in-flight fsync or compaction, so health checks stay responsive on a sick
// disk.
func (f *FileStore) Info() StoreInfo {
	info := StoreInfo{
		Backend:     "file",
		WALBytes:    f.walBytes.Load(),
		WALSegments: int(f.segments.Load()),
		WALFsyncs:   f.fsyncs.Load(),
		Compactions: f.compactions.Load(),
		Records:     int(f.records.Load()),
	}
	if s := f.compactErr.Load(); s != nil {
		info.CompactErr = *s
	}
	return info
}

// Close stops the background compactor, lets in-flight group commits drain,
// flushes the WAL and releases the active segment. Further mutations fail
// with ErrStoreClosed; reads keep serving the in-memory index.
func (f *FileStore) Close() error {
	f.mu.Lock()
	if f.closing {
		f.mu.Unlock()
		return nil
	}
	f.closing = true
	f.mu.Unlock()
	close(f.quitC)
	f.wg.Wait()
	f.muW.Lock()
	defer f.muW.Unlock()
	f.fileClosed = true
	if err := f.active.Sync(); err != nil {
		f.active.Close()
		return fmt.Errorf("cloud: flush wal: %w", err)
	}
	return f.active.Close()
}

// sortedRecordIDs returns the map's keys sorted, for deterministic WAL order.
func sortedRecordIDs(m map[string]*Record) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
