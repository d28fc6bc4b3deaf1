package cloud

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled on the
// stdlib so the server stays dependency-free. GET /metrics serves this by
// default; GET /metrics?format=json keeps the JSON body the bench tooling
// parses. Output is deterministic: families in fixed order, owner and
// channel label sets sorted.

// PrometheusContentType is the Content-Type GET /metrics serves the text
// exposition under.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promBuf accumulates exposition lines.
type promBuf struct {
	bytes.Buffer
}

// family emits the # HELP / # TYPE header of a metric family.
func (b *promBuf) family(name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// sample emits one sample line. labels is either empty or a pre-rendered
// `{k="v",...}` block.
func (b *promBuf) sample(name, labels string, value string) {
	fmt.Fprintf(b, "%s%s %s\n", name, labels, value)
}

func uintVal(v uint64) string { return strconv.FormatUint(v, 10) }
func intVal(v int) string     { return strconv.Itoa(v) }

// secondsVal renders a nanosecond total as seconds, the Prometheus base unit
// for time.
func secondsVal(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// label renders a single-label block with the value escaped per the
// exposition format (backslash, double quote, newline).
func label(key, value string) string {
	return "{" + key + `="` + escapeLabel(value) + `"}`
}

// labels2 renders a two-label block, both values escaped.
func labels2(k1, v1, k2, v2 string) string {
	return "{" + k1 + `="` + escapeLabel(v1) + `",` + k2 + `="` + escapeLabel(v2) + `"}`
}

// floatVal renders a bucket boundary the way Prometheus clients do: shortest
// representation that round-trips.
func floatVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// WritePrometheus renders the server metrics (plus per-channel accounting
// tallies) as Prometheus text exposition.
func WritePrometheus(w io.Writer, m HTTPMetrics) error {
	var b promBuf

	b.family("maacs_records", "gauge", "Records currently stored.")
	b.sample("maacs_records", "", intVal(m.Records))
	b.family("maacs_store_requests_total", "counter", "Successful record uploads.")
	b.sample("maacs_store_requests_total", "", uintVal(m.StoreRequests))
	b.family("maacs_record_fetches_total", "counter", "Successful whole-record downloads.")
	b.sample("maacs_record_fetches_total", "", uintVal(m.RecordFetches))
	b.family("maacs_component_fetches_total", "counter", "Successful single-component downloads.")
	b.sample("maacs_component_fetches_total", "", uintVal(m.ComponentFetches))
	b.family("maacs_fetched_bytes_total", "counter", "Ciphertext and sealed payload bytes served to downloads.")
	b.sample("maacs_fetched_bytes_total", "", uintVal(m.FetchedBytes))
	b.family("maacs_reencrypt_requests_total", "counter", "Fully committed re-encryption requests.")
	b.sample("maacs_reencrypt_requests_total", "", uintVal(m.ReEncryptRequests))
	b.family("maacs_reencrypt_failures_total", "counter", "Re-encryption requests failed after validation.")
	b.sample("maacs_reencrypt_failures_total", "", uintVal(m.ReEncryptFailures))
	b.family("maacs_reencrypt_items_total", "counter", "Committed update-info sets across all requests.")
	b.sample("maacs_reencrypt_items_total", "", uintVal(m.ReEncryptItems))
	b.family("maacs_reencrypted_ciphertexts_total", "counter", "Stored ciphertexts proxy re-encrypted.")
	b.sample("maacs_reencrypted_ciphertexts_total", "", uintVal(m.ReEncryptedCiphertexts))
	b.family("maacs_reencrypted_rows_total", "counter", "Access-structure rows touched by re-encryption.")
	b.sample("maacs_reencrypted_rows_total", "", uintVal(m.ReEncryptedRows))

	b.family("maacs_engine_jobs_total", "counter", "Engine jobs scheduled by re-encryption runs.")
	b.sample("maacs_engine_jobs_total", "", uintVal(m.Engine.Jobs))
	b.family("maacs_engine_cache_hits_total", "counter", "Engine cache hits by cache.")
	b.sample("maacs_engine_cache_hits_total", label("cache", "exp"), uintVal(m.Engine.ExpHits))
	b.sample("maacs_engine_cache_hits_total", label("cache", "prepared"), uintVal(m.Engine.PreparedHits))
	b.family("maacs_engine_cache_misses_total", "counter", "Engine cache misses by cache.")
	b.sample("maacs_engine_cache_misses_total", label("cache", "exp"), uintVal(m.Engine.ExpMisses))
	b.sample("maacs_engine_cache_misses_total", label("cache", "prepared"), uintVal(m.Engine.PreparedMisses))
	b.family("maacs_engine_wall_seconds_total", "counter", "Summed wall time of re-encryption fan-outs.")
	b.sample("maacs_engine_wall_seconds_total", "", secondsVal(m.Engine.WallNs))

	if len(m.Durations) > 0 {
		ops := make([]string, 0, len(m.Durations))
		for op := range m.Durations {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		const durName = "maacs_request_duration_seconds"
		b.family(durName, "histogram", "Request latency by operation.")
		for _, op := range ops {
			s := m.Durations[op]
			for _, bk := range s.Buckets {
				b.sample(durName+"_bucket", labels2("op", op, "le", floatVal(bk.LE)), uintVal(bk.Count))
			}
			b.sample(durName+"_bucket", labels2("op", op, "le", "+Inf"), uintVal(s.Count))
			b.sample(durName+"_sum", label("op", op), secondsVal(s.SumNs))
			b.sample(durName+"_count", label("op", op), uintVal(s.Count))
		}
	}

	b.family("maacs_wal_bytes", "gauge", "Committed write-ahead log bytes not yet compacted (0 for memory backends).")
	b.sample("maacs_wal_bytes", "", strconv.FormatInt(m.Store.WALBytes, 10))
	b.family("maacs_wal_segments", "gauge", "Write-ahead log segment files on disk.")
	b.sample("maacs_wal_segments", "", intVal(m.Store.WALSegments))
	b.family("maacs_wal_fsyncs_total", "counter", "Write-ahead log fsync calls (group commit coalesces writers).")
	b.sample("maacs_wal_fsyncs_total", "", uintVal(m.Store.WALFsyncs))
	b.family("maacs_compactions_total", "counter", "Completed WAL-into-snapshot compactions.")
	b.sample("maacs_compactions_total", "", uintVal(m.Store.Compactions))

	owners := make([]string, 0, len(m.Owners))
	for id := range m.Owners {
		owners = append(owners, id)
	}
	sort.Strings(owners)
	ownerFamilies := []struct {
		name string
		typ  string
		help string
		val  func(OwnerStats) string
	}{
		{"maacs_owner_records", "gauge", "Records currently stored per owner.",
			func(o OwnerStats) string { return intVal(o.Records) }},
		{"maacs_owner_store_requests_total", "counter", "Successful uploads per owner.",
			func(o OwnerStats) string { return uintVal(o.StoreRequests) }},
		{"maacs_owner_reencrypt_requests_total", "counter", "Fully committed re-encryption requests per owner.",
			func(o OwnerStats) string { return uintVal(o.ReEncryptRequests) }},
		{"maacs_owner_reencrypt_failures_total", "counter", "Failed re-encryption requests per owner.",
			func(o OwnerStats) string { return uintVal(o.ReEncryptFailures) }},
		{"maacs_owner_reencrypt_items_total", "counter", "Committed update-info sets per owner.",
			func(o OwnerStats) string { return uintVal(o.ReEncryptItems) }},
		{"maacs_owner_reencrypted_ciphertexts_total", "counter", "Ciphertexts re-encrypted per owner.",
			func(o OwnerStats) string { return uintVal(o.ReEncryptedCiphertexts) }},
		{"maacs_owner_reencrypted_rows_total", "counter", "Rows re-encrypted per owner.",
			func(o OwnerStats) string { return uintVal(o.ReEncryptedRows) }},
		{"maacs_owner_engine_jobs_total", "counter", "Engine jobs caused per owner.",
			func(o OwnerStats) string { return uintVal(o.Engine.Jobs) }},
		{"maacs_owner_engine_wall_seconds_total", "counter", "Re-encryption fan-out wall time per owner.",
			func(o OwnerStats) string { return secondsVal(o.Engine.WallNs) }},
	}
	for _, fam := range ownerFamilies {
		if len(owners) == 0 {
			break
		}
		b.family(fam.name, fam.typ, fam.help)
		for _, id := range owners {
			b.sample(fam.name, label("owner", id), fam.val(m.Owners[id]))
		}
	}

	users := make([]string, 0, len(m.Users))
	for id := range m.Users {
		users = append(users, id)
	}
	sort.Strings(users)
	userFamilies := []struct {
		name string
		typ  string
		help string
		val  func(UserStats) string
	}{
		{"maacs_user_record_fetches_total", "counter", "Whole-record downloads per user.",
			func(u UserStats) string { return uintVal(u.RecordFetches) }},
		{"maacs_user_component_fetches_total", "counter", "Single-component downloads per user.",
			func(u UserStats) string { return uintVal(u.ComponentFetches) }},
		{"maacs_user_fetched_bytes_total", "counter", "Bytes served to downloads per user.",
			func(u UserStats) string { return uintVal(u.FetchedBytes) }},
	}
	for _, fam := range userFamilies {
		if len(users) == 0 {
			break
		}
		b.family(fam.name, fam.typ, fam.help)
		for _, id := range users {
			b.sample(fam.name, label("user", id), fam.val(m.Users[id]))
		}
	}

	channels := make([]string, 0, len(m.Channels))
	for ch := range m.Channels {
		channels = append(channels, string(ch))
	}
	sort.Strings(channels)
	if len(channels) > 0 {
		b.family("maacs_channel_bytes_total", "counter", "Bytes exchanged per protocol channel (Table IV tallies).")
		for _, ch := range channels {
			b.sample("maacs_channel_bytes_total", label("channel", ch), intVal(m.Channels[Channel(ch)].Bytes))
		}
		b.family("maacs_channel_messages_total", "counter", "Messages exchanged per protocol channel.")
		for _, ch := range channels {
			b.sample("maacs_channel_messages_total", label("channel", ch), intVal(m.Channels[Channel(ch)].Messages))
		}
	}

	_, err := w.Write(b.Bytes())
	return err
}
