package cloud

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"maacs/internal/core"
	"maacs/internal/wire"
)

// The read path. The paper's server stores ciphertexts and ships them back;
// it never decrypts. Every download (both transports and in-process
// UserClients) reads the record the store holds now and renders its reply
// from that record.
//
// A stored *Record is never written after it is stored: every mutation
// installs a new pointer (Put, the copy-on-write clones of
// ReplaceIfUnchanged). So a render reads the record with no lock and no
// copy, a fetch that overlaps a mutation renders either the old record or
// the new one, and a fetch issued after a mutation returns renders the new
// one. A reply shares no memory with the store: each ciphertext is encoded
// afresh and each sealed payload copied.

// ResponseCacheStats is what is left of the retired encoded-response cache's
// counters. Only the benchmark harness reads it; the benchmark change that
// ROADMAP item 2 plans deletes it. Every download renders, so Hits and
// Evictions stay 0 and Misses counts the downloads served.
type ResponseCacheStats struct {
	Hits, Misses, Evictions uint64
}

// ResponseCacheStats reports one miss per download served.
func (s *Server) ResponseCacheStats() ResponseCacheStats {
	return ResponseCacheStats{Misses: s.recordFetches.Load() + s.componentFetches.Load()}
}

// download is every fetch. It reads the record the store holds now, selects
// the whole record (label == "") or the one component label names, and
// renders the reply from them. On success it meters their size on the
// Server↔User channel and counts the download in the cumulative counters and
// userID's row (empty = unattributed). Its latency lands in the fetch or
// fetch_component histogram, failures included.
func (s *Server) download(recordID, label, userID string, render func(rec *Record, comps []StoredComponent) error) error {
	component, op := label != "", opFetch
	if component {
		op = opFetchComponent
	}
	defer s.observe(op, time.Now())
	rec, ok := s.store.Get(recordID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrRecordNotFound, recordID)
	}
	comps := rec.Components
	if component {
		i := slices.IndexFunc(comps, func(c StoredComponent) bool { return c.Label == label })
		if i < 0 {
			return fmt.Errorf("%w: %q/%q", ErrComponentNotFound, recordID, label)
		}
		comps = comps[i : i+1]
	}
	if err := render(rec, comps); err != nil {
		return err
	}
	size := 0
	for i := range comps {
		size += comps[i].CT.Size(s.sys.Params) + len(comps[i].Sealed)
	}
	s.acct.Add(ChanServerUser, size)
	s.noteDownload(userID, size, component)
	return nil
}

// FetchRecordJSON serves a whole record as its HTTP/JSON body (trailing
// newline included).
func (s *Server) FetchRecordJSON(recordID, userID string) ([]byte, error) {
	var body []byte
	err := s.download(recordID, "", userID, func(rec *Record, _ []StoredComponent) (err error) {
		body, err = appendJSONBody(toHTTPRecord(rec))
		return err
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// FetchComponentJSON serves one component as its HTTP/JSON body.
func (s *Server) FetchComponentJSON(recordID, label, userID string) ([]byte, error) {
	var body []byte
	err := s.download(recordID, label, userID, func(rec *Record, comps []StoredComponent) (err error) {
		if label == "" { // download reads "" as the whole record, not a component
			return fmt.Errorf("%w: %q/%q", ErrComponentNotFound, rec.ID, label)
		}
		body, err = appendJSONBody(toHTTPComponent(&comps[0]))
		return err
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

// FetchWire serves a record (label == "") or one component (label != "") in
// the net/rpc reply shape: the record's owner ID and the marshaled
// components. It is the read path of RPC CloudServer.Fetch and of in-process
// UserClient downloads.
func (s *Server) FetchWire(recordID, label, userID string) (string, []RPCComponent, error) {
	var ownerID string
	var out []RPCComponent
	err := s.download(recordID, label, userID, func(rec *Record, comps []StoredComponent) error {
		ownerID = rec.OwnerID
		out = make([]RPCComponent, len(comps))
		for i := range comps {
			out[i] = RPCComponent{
				Label:  comps[i].Label,
				CT:     marshalCiphertext(comps[i].CT),
				Sealed: append([]byte(nil), comps[i].Sealed...),
			}
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	return ownerID, out, nil
}

// appendJSONBody marshals v into the exact bytes json.Encoder produces
// (json.Marshal plus the trailing newline), the body writeJSON writes.
func appendJSONBody(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ---- pooled encode scratch -------------------------------------------------

// encoderPool recycles wire encoders so the renders (and the other
// serialization sites on the gateway) stop allocating a fresh buffer per
// ciphertext.
var encoderPool = sync.Pool{New: func() any { return new(wire.Encoder) }}

// b64Pool recycles base64 destination scratch; the encoded string itself is
// the only allocation left.
var b64Pool = sync.Pool{New: func() any { return new([]byte) }}

// b64String base64-encodes raw through pooled scratch.
func b64String(raw []byte) string {
	n := base64.StdEncoding.EncodedLen(len(raw))
	bp := b64Pool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	base64.StdEncoding.Encode(buf, raw)
	s := string(buf)
	b64Pool.Put(bp)
	return s
}

// b64Ciphertext renders a ciphertext's wire encoding as base64 without an
// intermediate allocation of the raw encoding.
func b64Ciphertext(ct *core.Ciphertext) string {
	e := encoderPool.Get().(*wire.Encoder)
	e.Reset()
	ct.MarshalTo(e)
	s := b64String(e.Bytes())
	encoderPool.Put(e)
	return s
}

// marshalCiphertext is ct.Marshal through the encoder pool: only the returned
// copy allocates.
func marshalCiphertext(ct *core.Ciphertext) []byte {
	e := encoderPool.Get().(*wire.Encoder)
	e.Reset()
	ct.MarshalTo(e)
	out := append([]byte(nil), e.Bytes()...)
	encoderPool.Put(e)
	return out
}
