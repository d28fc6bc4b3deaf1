package cloud

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"maacs/internal/core"
)

// HTTP gateway: a second transport for the cloud server, exposing the same
// storage and proxy-re-encryption operations as the net/rpc endpoint over
// plain HTTP/JSON (group elements travel base64-encoded in their wire
// encodings). Like the RPC layer, the gateway carries only public material.
//
//	POST /records                       — upload a record
//	GET  /records/{id}[?user=uid]       — fetch a record (optionally attributed)
//	GET  /records/{id}/{label}[?user=uid] — fetch one component
//	GET  /owners/{id}/ciphertexts       — list an owner's ciphertexts
//	POST /owners/{id}/reencrypt/batch   — re-encrypt under update-info sets
//	GET  /metrics                       — Prometheus text exposition
//	GET  /metrics?format=json           — cumulative counters as JSON
//	GET  /healthz                       — liveness

// HTTPComponent is the JSON form of a stored component.
type HTTPComponent struct {
	Label  string `json:"label"`
	CT     string `json:"ct"`     // base64 core.Ciphertext wire encoding
	Sealed string `json:"sealed"` // base64 AES-GCM payload
}

// HTTPRecord is the JSON form of a record.
type HTTPRecord struct {
	ID         string          `json:"id"`
	OwnerID    string          `json:"ownerId"`
	Components []HTTPComponent `json:"components"`
}

// HTTPReEncryptRequest is one update-info set of a re-encryption request.
type HTTPReEncryptRequest struct {
	UpdateKey   string   `json:"updateKey"`   // base64 core.UpdateKey
	UpdateInfos []string `json:"updateInfos"` // base64 core.UpdateInfo each
}

// HTTPBatchReEncryptRequest is the JSON body of a re-encryption request: the
// update-info sets Server.ReEncrypt streams through the server's configured
// window.
type HTTPBatchReEncryptRequest struct {
	Items []HTTPReEncryptRequest `json:"items"`
}

// HTTPBatchReEncryptResponse is the JSON body of a committed re-encryption
// request: the BatchReport itself.
type HTTPBatchReEncryptResponse = BatchReport

// HTTPHealth is the GET /healthz body: liveness plus a description of the
// storage backend (engine, WAL state, records loaded). Status is "degraded"
// while the backend reports a background-compaction failure — writes are
// still durable through the WAL, but the log is no longer being folded and
// disk usage grows unbounded.
type HTTPHealth struct {
	Status string    `json:"status"`
	Store  StoreInfo `json:"store"`
}

// HTTPMetrics is the GET /metrics body: the server's cumulative counters,
// the storage backend state, and the per-channel communication tallies.
type HTTPMetrics struct {
	Metrics
	Store    StoreInfo                `json:"store"`
	Channels map[Channel]ChannelStats `json:"channels,omitempty"`
}

// httpError is the JSON error envelope. A mid-batch re-encryption failure
// additionally names the record IDs that committed before the failing window
// and the index of the first uncommitted item, so the client can resubmit
// only items[next_item:].
type httpError struct {
	Error     string   `json:"error"`
	Committed []string `json:"committed,omitempty"`
	Windows   int      `json:"windows,omitempty"`
	NextItem  int      `json:"next_item,omitempty"`
}

// NewHTTPHandler exposes the server over HTTP/JSON.
func NewHTTPHandler(sys *core.System, server *Server) http.Handler {
	h := &httpGateway{sys: sys, server: server}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		info := server.StoreInfo()
		status := "ok"
		if info.CompactErr != "" {
			status = "degraded"
		}
		writeJSON(w, http.StatusOK, HTTPHealth{Status: status, Store: info})
	})
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("POST /records", h.storeRecord)
	mux.HandleFunc("GET /records/{id}", h.fetchRecord)
	mux.HandleFunc("DELETE /records/{id}", h.deleteRecord)
	mux.HandleFunc("GET /records/{id}/{label}", h.fetchComponent)
	mux.HandleFunc("GET /owners/{id}/ciphertexts", h.listCiphertexts)
	mux.HandleFunc("POST /owners/{id}/reencrypt/batch", h.reencrypt)
	return mux
}

type httpGateway struct {
	sys    *core.System
	server *Server
}

const maxHTTPBody = 64 << 20 // generous cap; ciphertexts are small

// decodeBody decodes the size-capped JSON body into v, writing the error
// response (413 for an overflowing body, 400 otherwise) on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHTTPBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			httpError{Error: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, httpError{Error: "bad json: " + err.Error()})
	return false
}

func (h *httpGateway) metrics(w http.ResponseWriter, r *http.Request) {
	m := HTTPMetrics{
		Metrics:  h.server.Metrics(),
		Store:    h.server.StoreInfo(),
		Channels: h.server.acct.Snapshot(),
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = WritePrometheus(w, m)
}

func (h *httpGateway) storeRecord(w http.ResponseWriter, r *http.Request) {
	var in HTTPRecord
	if !decodeBody(w, r, &in) {
		return
	}
	raw := make([]RPCComponent, len(in.Components))
	for i, c := range in.Components {
		ct, err := base64.StdEncoding.DecodeString(c.CT)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: "bad ct encoding: " + err.Error()})
			return
		}
		sealed, err := base64.StdEncoding.DecodeString(c.Sealed)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: "bad sealed encoding: " + err.Error()})
			return
		}
		raw[i] = RPCComponent{Label: c.Label, CT: ct, Sealed: sealed}
	}
	comps, err := decodeComponents(h.sys, in.ID, raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	if err := h.server.Store(&Record{ID: in.ID, OwnerID: in.OwnerID, Components: comps}); err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": in.ID})
}

func (h *httpGateway) fetchRecord(w http.ResponseWriter, r *http.Request) {
	body, err := h.server.FetchRecordJSON(r.PathValue("id"), r.URL.Query().Get("user"))
	if err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeRawJSON(w, http.StatusOK, body)
}

func (h *httpGateway) deleteRecord(w http.ResponseWriter, r *http.Request) {
	ownerID := r.URL.Query().Get("owner")
	if ownerID == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "owner query parameter required"})
		return
	}
	if _, err := h.server.Delete(r.PathValue("id"), ownerID); err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

func (h *httpGateway) fetchComponent(w http.ResponseWriter, r *http.Request) {
	body, err := h.server.FetchComponentJSON(r.PathValue("id"), r.PathValue("label"), r.URL.Query().Get("user"))
	if err != nil {
		writeJSON(w, statusFor(err), httpError{Error: err.Error()})
		return
	}
	writeRawJSON(w, http.StatusOK, body)
}

func (h *httpGateway) listCiphertexts(w http.ResponseWriter, r *http.Request) {
	cts := h.server.CiphertextsOf(r.PathValue("id"))
	out := make([]string, 0, len(cts))
	for _, ct := range cts {
		out = append(out, b64Ciphertext(ct))
	}
	writeJSON(w, http.StatusOK, map[string][]string{"ciphertexts": out})
}

func (h *httpGateway) reencrypt(w http.ResponseWriter, r *http.Request) {
	var in HTTPBatchReEncryptRequest
	if !decodeBody(w, r, &in) {
		return
	}
	items := make([]ReEncryptItem, len(in.Items))
	keys := make(map[string]*core.UpdateKey)
	for i, hin := range in.Items {
		uk, err := base64.StdEncoding.DecodeString(hin.UpdateKey)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("item %d: bad update key encoding", i)})
			return
		}
		uis := make([][]byte, len(hin.UpdateInfos))
		for j, s := range hin.UpdateInfos {
			if uis[j], err = base64.StdEncoding.DecodeString(s); err != nil {
				writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("item %d: bad update info %d", i, j)})
				return
			}
		}
		if items[i], err = decodeReEncryptItem(h.sys, keys, uk, uis); err != nil {
			writeJSON(w, statusFor(err), httpError{Error: fmt.Sprintf("item %d: %v", i, err)})
			return
		}
	}
	report, err := h.server.ReEncrypt(r.PathValue("id"), items)
	if err != nil {
		e := httpError{Error: err.Error()}
		if report != nil {
			e.Committed = report.Committed
			e.Windows = report.Windows
			e.NextItem = report.NextItem
		}
		writeJSON(w, statusFor(err), e)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

func toHTTPRecord(rec *Record) HTTPRecord {
	out := HTTPRecord{ID: rec.ID, OwnerID: rec.OwnerID}
	for _, c := range rec.Components {
		out.Components = append(out.Components, HTTPComponent{
			Label:  c.Label,
			CT:     b64Ciphertext(c.CT),
			Sealed: b64String(c.Sealed),
		})
	}
	return out
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrRecordNotFound),
		errors.Is(err, ErrComponentNotFound),
		errors.Is(err, ErrUnknownOwner):
		return http.StatusNotFound
	case errors.Is(err, core.ErrVersionMismatch),
		errors.Is(err, ErrAlreadyStored),
		errors.Is(err, ErrReEncryptConflict):
		return http.StatusConflict
	case errors.Is(err, ErrStoreClosed):
		// The backend flushed and shut down; the request may be retried
		// against the restarted server.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeJSON marshals v before writing the header, so an encode failure
// becomes a clean 500 instead of a truncated 200 body. The body matches
// json.Encoder output byte for byte (trailing newline included), which is
// also what the response cache serves on the fetch paths.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := appendJSONBody(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = appendJSONBody(httpError{Error: "cloud: encode response: " + err.Error()})
	}
	writeRawJSON(w, status, data)
}

// writeRawJSON writes a pre-rendered JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
