package cloud

import (
	"strconv"
	"strings"
	"testing"

	"maacs/internal/engine"
)

// TestWritePrometheusGolden pins the full text exposition for a handcrafted
// metrics snapshot: family order, HELP/TYPE headers, per-owner and
// per-channel label sets (sorted), label escaping, histogram bucket/sum/count
// rendering, and nanosecond→second conversion. Any drift in the scrape format
// fails byte-for-byte.
func TestWritePrometheusGolden(t *testing.T) {
	m := HTTPMetrics{
		Metrics: Metrics{
			Records:                3,
			StoreRequests:          4,
			RecordFetches:          6,
			ComponentFetches:       11,
			FetchedBytes:           2048,
			ReEncryptRequests:      2,
			ReEncryptItems:         5,
			ReEncryptedCiphertexts: 7,
			ReEncryptedRows:        21,
			ReEncryptFailures:      1,
			Engine: engine.Stats{
				Jobs: 9, Chunks: 4,
				PreparedHits: 3, PreparedMisses: 2,
				ExpHits: 10, ExpMisses: 5,
				WallNs: 1_500_000_000,
			},
			Owners: map[string]OwnerStats{
				"hospital": {
					Records: 2, StoreRequests: 3,
					ReEncryptRequests: 2, ReEncryptFailures: 1,
					ReEncryptItems: 5, ReEncryptedCiphertexts: 7, ReEncryptedRows: 21,
					Engine: engine.Stats{Jobs: 9, WallNs: 1_500_000_000},
				},
				// A hostile owner ID exercises label escaping.
				`ward"7`: {Records: 1, StoreRequests: 1},
			},
			Users: map[string]UserStats{
				"alice": {RecordFetches: 4, ComponentFetches: 9, FetchedBytes: 1536},
				"bob":   {ComponentFetches: 2, FetchedBytes: 512},
			},
			Durations: map[string]HistogramSnapshot{
				"fetch": {
					Buckets: []HistogramBucket{{LE: 1e-5, Count: 2}, {LE: 2e-5, Count: 5}},
					Count:   5, SumNs: 60_000,
				},
				// An overflow observation: +Inf exceeds the last finite bucket.
				"reencrypt": {
					Buckets: []HistogramBucket{{LE: 0.08192, Count: 2}},
					Count:   3, SumNs: 2_000_000_000,
				},
			},
			ResponseCache: ResponseCacheStats{
				Hits: 42, Misses: 7, Evictions: 3,
				Bytes: 123456, Entries: 5, CapBytes: 1 << 20,
			},
		},
		Store: StoreInfo{
			Backend:  "file",
			WALBytes: 8192, WALSegments: 3, WALFsyncs: 17, Compactions: 2,
			Records: 3,
		},
		Channels: map[Channel]ChannelStats{
			ChanServerOwner: {Bytes: 4096, Messages: 6},
			ChanServerUser:  {Bytes: 1024, Messages: 2},
		},
	}

	want := `# HELP maacs_records Records currently stored.
# TYPE maacs_records gauge
maacs_records 3
# HELP maacs_store_requests_total Successful record uploads.
# TYPE maacs_store_requests_total counter
maacs_store_requests_total 4
# HELP maacs_record_fetches_total Successful whole-record downloads.
# TYPE maacs_record_fetches_total counter
maacs_record_fetches_total 6
# HELP maacs_component_fetches_total Successful single-component downloads.
# TYPE maacs_component_fetches_total counter
maacs_component_fetches_total 11
# HELP maacs_fetched_bytes_total Ciphertext and sealed payload bytes served to downloads.
# TYPE maacs_fetched_bytes_total counter
maacs_fetched_bytes_total 2048
# HELP maacs_reencrypt_requests_total Fully committed re-encryption requests.
# TYPE maacs_reencrypt_requests_total counter
maacs_reencrypt_requests_total 2
# HELP maacs_reencrypt_failures_total Re-encryption requests failed after validation.
# TYPE maacs_reencrypt_failures_total counter
maacs_reencrypt_failures_total 1
# HELP maacs_reencrypt_items_total Committed update-info sets across all requests.
# TYPE maacs_reencrypt_items_total counter
maacs_reencrypt_items_total 5
# HELP maacs_reencrypted_ciphertexts_total Stored ciphertexts proxy re-encrypted.
# TYPE maacs_reencrypted_ciphertexts_total counter
maacs_reencrypted_ciphertexts_total 7
# HELP maacs_reencrypted_rows_total Access-structure rows touched by re-encryption.
# TYPE maacs_reencrypted_rows_total counter
maacs_reencrypted_rows_total 21
# HELP maacs_engine_jobs_total Engine jobs scheduled by re-encryption runs.
# TYPE maacs_engine_jobs_total counter
maacs_engine_jobs_total 9
# HELP maacs_engine_chunks_total Multi-pairing chunks split off by re-encryption runs.
# TYPE maacs_engine_chunks_total counter
maacs_engine_chunks_total 4
# HELP maacs_engine_cache_hits_total Engine cache hits by cache.
# TYPE maacs_engine_cache_hits_total counter
maacs_engine_cache_hits_total{cache="exp"} 10
maacs_engine_cache_hits_total{cache="prepared"} 3
# HELP maacs_engine_cache_misses_total Engine cache misses by cache.
# TYPE maacs_engine_cache_misses_total counter
maacs_engine_cache_misses_total{cache="exp"} 5
maacs_engine_cache_misses_total{cache="prepared"} 2
# HELP maacs_engine_wall_seconds_total Summed wall time of re-encryption fan-outs.
# TYPE maacs_engine_wall_seconds_total counter
maacs_engine_wall_seconds_total 1.5
# HELP maacs_request_duration_seconds Request latency by operation.
# TYPE maacs_request_duration_seconds histogram
maacs_request_duration_seconds_bucket{op="fetch",le="1e-05"} 2
maacs_request_duration_seconds_bucket{op="fetch",le="2e-05"} 5
maacs_request_duration_seconds_bucket{op="fetch",le="+Inf"} 5
maacs_request_duration_seconds_sum{op="fetch"} 6e-05
maacs_request_duration_seconds_count{op="fetch"} 5
maacs_request_duration_seconds_bucket{op="reencrypt",le="0.08192"} 2
maacs_request_duration_seconds_bucket{op="reencrypt",le="+Inf"} 3
maacs_request_duration_seconds_sum{op="reencrypt"} 2
maacs_request_duration_seconds_count{op="reencrypt"} 3
# HELP maacs_wal_bytes Committed write-ahead log bytes not yet compacted (0 for memory backends).
# TYPE maacs_wal_bytes gauge
maacs_wal_bytes 8192
# HELP maacs_wal_segments Write-ahead log segment files on disk.
# TYPE maacs_wal_segments gauge
maacs_wal_segments 3
# HELP maacs_wal_fsyncs_total Write-ahead log fsync calls (group commit coalesces writers).
# TYPE maacs_wal_fsyncs_total counter
maacs_wal_fsyncs_total 17
# HELP maacs_compactions_total Completed WAL-into-snapshot compactions.
# TYPE maacs_compactions_total counter
maacs_compactions_total 2
# HELP maacs_response_cache_hits_total Fetches served from the encoded-response cache without re-serialization.
# TYPE maacs_response_cache_hits_total counter
maacs_response_cache_hits_total 42
# HELP maacs_response_cache_misses_total Encoded-response renders performed (single-flight coalesces concurrent misses).
# TYPE maacs_response_cache_misses_total counter
maacs_response_cache_misses_total 7
# HELP maacs_response_cache_evictions_total Encoded responses dropped by the LRU byte bound.
# TYPE maacs_response_cache_evictions_total counter
maacs_response_cache_evictions_total 3
# HELP maacs_response_cache_bytes Bytes of rendered responses currently cached.
# TYPE maacs_response_cache_bytes gauge
maacs_response_cache_bytes 123456
# HELP maacs_owner_records Records currently stored per owner.
# TYPE maacs_owner_records gauge
maacs_owner_records{owner="hospital"} 2
maacs_owner_records{owner="ward\"7"} 1
# HELP maacs_owner_store_requests_total Successful uploads per owner.
# TYPE maacs_owner_store_requests_total counter
maacs_owner_store_requests_total{owner="hospital"} 3
maacs_owner_store_requests_total{owner="ward\"7"} 1
# HELP maacs_owner_reencrypt_requests_total Fully committed re-encryption requests per owner.
# TYPE maacs_owner_reencrypt_requests_total counter
maacs_owner_reencrypt_requests_total{owner="hospital"} 2
maacs_owner_reencrypt_requests_total{owner="ward\"7"} 0
# HELP maacs_owner_reencrypt_failures_total Failed re-encryption requests per owner.
# TYPE maacs_owner_reencrypt_failures_total counter
maacs_owner_reencrypt_failures_total{owner="hospital"} 1
maacs_owner_reencrypt_failures_total{owner="ward\"7"} 0
# HELP maacs_owner_reencrypt_items_total Committed update-info sets per owner.
# TYPE maacs_owner_reencrypt_items_total counter
maacs_owner_reencrypt_items_total{owner="hospital"} 5
maacs_owner_reencrypt_items_total{owner="ward\"7"} 0
# HELP maacs_owner_reencrypted_ciphertexts_total Ciphertexts re-encrypted per owner.
# TYPE maacs_owner_reencrypted_ciphertexts_total counter
maacs_owner_reencrypted_ciphertexts_total{owner="hospital"} 7
maacs_owner_reencrypted_ciphertexts_total{owner="ward\"7"} 0
# HELP maacs_owner_reencrypted_rows_total Rows re-encrypted per owner.
# TYPE maacs_owner_reencrypted_rows_total counter
maacs_owner_reencrypted_rows_total{owner="hospital"} 21
maacs_owner_reencrypted_rows_total{owner="ward\"7"} 0
# HELP maacs_owner_engine_jobs_total Engine jobs caused per owner.
# TYPE maacs_owner_engine_jobs_total counter
maacs_owner_engine_jobs_total{owner="hospital"} 9
maacs_owner_engine_jobs_total{owner="ward\"7"} 0
# HELP maacs_owner_engine_wall_seconds_total Re-encryption fan-out wall time per owner.
# TYPE maacs_owner_engine_wall_seconds_total counter
maacs_owner_engine_wall_seconds_total{owner="hospital"} 1.5
maacs_owner_engine_wall_seconds_total{owner="ward\"7"} 0
# HELP maacs_user_record_fetches_total Whole-record downloads per user.
# TYPE maacs_user_record_fetches_total counter
maacs_user_record_fetches_total{user="alice"} 4
maacs_user_record_fetches_total{user="bob"} 0
# HELP maacs_user_component_fetches_total Single-component downloads per user.
# TYPE maacs_user_component_fetches_total counter
maacs_user_component_fetches_total{user="alice"} 9
maacs_user_component_fetches_total{user="bob"} 2
# HELP maacs_user_fetched_bytes_total Bytes served to downloads per user.
# TYPE maacs_user_fetched_bytes_total counter
maacs_user_fetched_bytes_total{user="alice"} 1536
maacs_user_fetched_bytes_total{user="bob"} 512
# HELP maacs_channel_bytes_total Bytes exchanged per protocol channel (Table IV tallies).
# TYPE maacs_channel_bytes_total counter
maacs_channel_bytes_total{channel="Server↔Owner"} 4096
maacs_channel_bytes_total{channel="Server↔User"} 1024
# HELP maacs_channel_messages_total Messages exchanged per protocol channel.
# TYPE maacs_channel_messages_total counter
maacs_channel_messages_total{channel="Server↔Owner"} 6
maacs_channel_messages_total{channel="Server↔User"} 2
`

	var buf strings.Builder
	if err := WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusEmpty: a fresh server has no owner or channel rows, and
// the exposition must simply omit those families rather than emit empties.
func TestWritePrometheusEmpty(t *testing.T) {
	var buf strings.Builder
	if err := WritePrometheus(&buf, HTTPMetrics{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "maacs_owner_") || strings.Contains(out, "maacs_user_") || strings.Contains(out, "maacs_channel_") {
		t.Fatalf("empty metrics emitted labelled families:\n%s", out)
	}
	if !strings.Contains(out, "maacs_records 0\n") {
		t.Fatalf("missing zero-valued gauge:\n%s", out)
	}
	// Every non-comment line is NAME[{labels}] VALUE; every sample's family
	// was announced by a TYPE header first.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(rest)[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, _, _ := strings.Cut(fields[0], "{")
		if !typed[name] {
			t.Fatalf("sample %q precedes its TYPE header", line)
		}
	}
}

// TestPrometheusHistogramExposition lints the histogram families of a live
// server's exposition: every `*_bucket` family must come with `_sum` and
// `_count` samples for the same label set, bucket counts must be cumulative
// (non-decreasing in le order) and end in a `+Inf` bucket equal to `_count`.
// This is the histogram-exposition gate check.sh runs.
func TestPrometheusHistogramExposition(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	doctor := addUser(t, env, "dr-bob", map[string][]string{"med": {"doctor"}})
	if _, err := doctor.DownloadRecord("patient-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := doctor.Download("patient-7", "diagnosis"); err != nil {
		t.Fatal(err)
	}
	m := HTTPMetrics{Metrics: env.Server.Metrics(), Store: env.Server.StoreInfo()}
	var buf strings.Builder
	if err := WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE maacs_request_duration_seconds histogram\n") {
		t.Fatalf("no histogram family in exposition:\n%s", out)
	}

	// Collect per-series state keyed by the label block minus the le label.
	type series struct {
		buckets  []uint64
		lastLE   string
		sum      bool
		count    uint64
		hasCount bool
	}
	all := map[string]*series{}
	get := func(key string) *series {
		s := all[key]
		if s == nil {
			s = &series{}
			all[key] = s
		}
		return s
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		name, labels, _ := strings.Cut(fields[0], "{")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le, rest := "", make([]string, 0, 2)
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				if v, ok := strings.CutPrefix(kv, `le="`); ok {
					le = strings.TrimSuffix(v, `"`)
				} else {
					rest = append(rest, kv)
				}
			}
			if le == "" {
				t.Fatalf("bucket sample without le label: %q", line)
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value %q: %v", line, err)
			}
			s := get(base + "|" + strings.Join(rest, ","))
			if n := len(s.buckets); n > 0 && v < s.buckets[n-1] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			s.buckets = append(s.buckets, v)
			s.lastLE = le
		case strings.HasSuffix(name, "_sum"):
			get(strings.TrimSuffix(name, "_sum") + "|" + strings.TrimSuffix(labels, "}")).sum = true
		case strings.HasSuffix(name, "_count"):
			s := get(strings.TrimSuffix(name, "_count") + "|" + strings.TrimSuffix(labels, "}"))
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad count value %q: %v", line, err)
			}
			s.count, s.hasCount = v, true
		}
	}
	checked := 0
	for key, s := range all {
		if len(s.buckets) == 0 {
			continue
		}
		checked++
		if !s.sum || !s.hasCount {
			t.Errorf("series %q has buckets but sum=%v count=%v", key, s.sum, s.hasCount)
		}
		if s.lastLE != "+Inf" {
			t.Errorf("series %q does not end in +Inf (last le %q)", key, s.lastLE)
		}
		if s.hasCount && s.buckets[len(s.buckets)-1] != s.count {
			t.Errorf("series %q +Inf bucket %d != count %d", key, s.buckets[len(s.buckets)-1], s.count)
		}
	}
	if checked < 2 {
		t.Fatalf("expected histogram series for fetch and fetch_component, checked %d", checked)
	}
}

// TestEscapeLabel covers the three escapes the exposition format defines for
// label values.
func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}
