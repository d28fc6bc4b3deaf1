package cloud

import (
	"fmt"

	"maacs/internal/core"
	"maacs/internal/wire"
)

// snapshotMagic opens every snapshot.maacs file, so a foreign file is refused
// at open.
const snapshotMagic = "maacs-snapshot-v1"

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
	raw := make([]RPCComponent, d.Count(3))
	for i := range raw {
		raw[i] = RPCComponent{Label: d.String(), CT: d.Blob(), Sealed: d.Blob()}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("record %q: %w", rec.ID, d.Err())
	}
	comps, err := decodeComponents(sys, rec.ID, raw)
	if err != nil {
		return nil, err
	}
	rec.Components = comps
	return rec, nil
}

// decodeComponents turns encoded components into stored ones, the one
// decoder of every upload, download and snapshot or WAL record. It decodes,
// and so validates, every ciphertext and copies every sealed payload, so the
// result shares no memory with raw, which may be a decoder's input buffer.
func decodeComponents(sys *core.System, recordID string, raw []RPCComponent) ([]StoredComponent, error) {
	comps := make([]StoredComponent, len(raw))
	for i, c := range raw {
		ct, err := core.UnmarshalCiphertext(sys.Params, c.CT)
		if err != nil {
			return nil, fmt.Errorf("record %q component %q: %w", recordID, c.Label, err)
		}
		comps[i] = StoredComponent{Label: c.Label, CT: ct, Sealed: append([]byte(nil), c.Sealed...)}
	}
	return comps, nil
}
