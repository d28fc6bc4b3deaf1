package cloud

import (
	"errors"
	"fmt"
	"io"

	"maacs/internal/core"
	"maacs/internal/wire"
)

// snapshotMagic guards against restoring a foreign or corrupted stream.
const snapshotMagic = "maacs-snapshot-v1"

// defaultMaxSnapshotBytes caps how much snapshot input Restore will buffer
// after the header check; larger streams are rejected rather than read to
// the end. Per-server overridable via SetSnapshotLimit.
const defaultMaxSnapshotBytes int64 = 1 << 30

// ErrSnapshotTooLarge reports snapshot input over the size cap.
var ErrSnapshotTooLarge = errors.New("cloud: snapshot exceeds size cap")

// SetSnapshotLimit caps the bytes Restore will buffer for this server.
// n <= 0 restores the default (1 GiB). A per-server option so tests can
// exercise the cap without mutating global state.
func (s *Server) SetSnapshotLimit(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotLimit = n
}

// snapshotLimitBytes returns the effective Restore size cap.
func (s *Server) snapshotLimitBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapshotLimit <= 0 {
		return defaultMaxSnapshotBytes
	}
	return s.snapshotLimit
}

// encodeRecord appends one record in the snapshot wire format — also the
// body of a FileStore WAL put entry, so log and snapshot stay one format.
func encodeRecord(e *wire.Encoder, rec *Record) {
	e.String(rec.ID)
	e.String(rec.OwnerID)
	e.Int(len(rec.Components))
	for _, c := range rec.Components {
		e.String(c.Label)
		e.Blob(c.CT.Marshal())
		e.Blob(c.Sealed)
	}
}

// decodeRecord reads one record in the snapshot wire format.
func decodeRecord(sys *core.System, d *wire.Decoder) (*Record, error) {
	rec := &Record{ID: d.String(), OwnerID: d.String()}
	nc := d.Count(3)
	if d.Err() != nil {
		return nil, fmt.Errorf("record %q: %w", rec.ID, d.Err())
	}
	for j := 0; j < nc; j++ {
		label := d.String()
		ctRaw := d.Blob()
		sealed := d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("record %q component %d: %w", rec.ID, j, d.Err())
		}
		ct, err := core.UnmarshalCiphertext(sys.Params, ctRaw)
		if err != nil {
			return nil, fmt.Errorf("record %q component %q: %w", rec.ID, label, err)
		}
		rec.Components = append(rec.Components, StoredComponent{
			Label:  label,
			CT:     ct,
			Sealed: append([]byte(nil), sealed...),
		})
	}
	return rec, nil
}

// Snapshot serializes every stored record to w in a deterministic order, so
// the server can be restarted (or replicated) without losing hosted data.
// Only public material is written — the server never held anything else.
// The record set comes from the store's snapshot hook, one consistent view.
func (s *Server) Snapshot(w io.Writer) error {
	recs := s.store.Records()
	var e wire.Encoder
	e.String(snapshotMagic)
	e.Int(len(recs))
	for _, rec := range recs {
		encodeRecord(&e, rec)
	}
	if _, err := w.Write(e.Bytes()); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	return nil
}

// Restore loads a snapshot into an empty server. It refuses to overwrite
// existing records (the store's batch-insert hook checks the whole batch
// before applying any of it). The magic header is checked from a streamed
// prefix before anything else is buffered, so foreign input is rejected
// without reading it, and the body is capped at the snapshot limit
// (SetSnapshotLimit). On a durable backend the restored records are logged
// and fsynced like any other write.
func (s *Server) Restore(r io.Reader) error {
	// The header is a fixed-size prefix: a one-byte varint length followed
	// by the magic string. Read exactly that much and validate it before
	// committing to buffer the rest.
	hdr := make([]byte, 1+len(snapshotMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("cloud: snapshot header: %w", err)
	}
	hd := wire.NewDecoder(hdr)
	if magic := hd.String(); magic != snapshotMagic {
		return fmt.Errorf("cloud: not a maacs snapshot (magic %q)", magic)
	}

	limit := s.snapshotLimitBytes()
	lr := &io.LimitedReader{R: r, N: limit + 1}
	data, err := io.ReadAll(lr)
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	if lr.N <= 0 {
		return fmt.Errorf("%w (%d bytes)", ErrSnapshotTooLarge, limit)
	}
	d := wire.NewDecoder(data)
	n := d.Count(3)
	if d.Err() != nil {
		return fmt.Errorf("snapshot header: %w", d.Err())
	}
	records := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		rec, err := decodeRecord(s.sys, d)
		if err != nil {
			return fmt.Errorf("snapshot %d: %w", i, err)
		}
		records = append(records, rec)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := s.store.Restore(records); err != nil {
		return err
	}
	for _, rec := range records {
		s.resp.Bump(rec.ID)
	}
	return nil
}
