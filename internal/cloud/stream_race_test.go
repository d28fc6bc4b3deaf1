package cloud

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"maacs/internal/wire"
)

// TestStreamingBatchRace drives the windowed re-encryption path while
// server clones, metrics scrapes (both expositions) and downloads run
// concurrently. The streaming mode releases the server lock between windows,
// so every one of these can interleave with a half-done batch; under -race
// (scripts/check.sh runs this gate) the schedule must stay clean, and every
// observation must be internally consistent.
func TestStreamingBatchRace(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	uploadSecondRecord(t, owner)
	ownerID := owner.Owner.ID()
	env.Server.SetBatchWindow(1) // 5 items → 5 windows, 4 lock release points
	handler := NewHTTPHandler(env.Sys, env.Server)

	const rounds = 2
	for round := 0; round < rounds; round++ {
		uk, uis := revocationInputs(t, env, owner)
		items := perCiphertextItems(uk, uis)

		stop := make(chan struct{})
		var wg, ready sync.WaitGroup
		spin := func(body func() bool) {
			wg.Add(1)
			ready.Add(1)
			go func() {
				defer wg.Done()
				ready.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !body() {
						return
					}
				}
			}()
		}

		// Scraper: the Prometheus exposition and the JSON body must both
		// stay well-formed mid-batch.
		spin(func() bool {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), "maacs_records 2\n") {
				t.Errorf("scrape: status %d body %q", rec.Code, rec.Body.String())
				return false
			}
			rec = httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
			var m HTTPMetrics
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
				t.Errorf("json scrape: %v", err)
				return false
			}
			// Items commit window by window but ciphertext counts only move
			// with them; a scrape must never see work from an uncommitted
			// window.
			if m.ReEncryptedCiphertexts < m.ReEncryptItems {
				t.Errorf("scrape saw %d ciphertexts for %d items", m.ReEncryptedCiphertexts, m.ReEncryptItems)
				return false
			}
			return true
		})

		// Cloner: every record set read mid-batch must rebuild a server
		// through the snapshot codec, as compaction writes it and a reopen
		// reads it — windows commit atomically, so no view can catch a torn
		// state.
		spin(func() bool {
			fresh := NewServerWithStore(env.Sys, nil, NewMemStore())
			for _, rec := range env.Server.store.Records() {
				var e wire.Encoder
				encodeRecord(&e, rec)
				cp, err := decodeRecord(env.Sys, wire.NewDecoder(e.Bytes()))
				if err == nil {
					err = fresh.store.Put(cp)
				}
				if err != nil {
					t.Errorf("rebuild from a mid-batch record set: %v", err)
					return false
				}
			}
			if got := recordCount(fresh); got != 2 {
				t.Errorf("mid-batch record set has %d records", got)
				return false
			}
			return true
		})

		// Reader: downloads proceed while the batch computes between windows.
		spin(func() bool {
			rec, err := fetchRecord(env.Server, "patient-7")
			if err != nil || len(rec.Components) != 3 {
				t.Errorf("fetch: %v", err)
				return false
			}
			for i := range rec.Components {
				_ = rec.Components[i].CT.Size(env.Sys.Params)
			}
			for _, ct := range env.Server.CiphertextsOf(ownerID) {
				_ = ct.Size(env.Sys.Params)
			}
			return true
		})

		ready.Wait()
		report, err := env.Server.ReEncrypt(ownerID, items)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if report.Windows != 5 || report.Ciphertexts != 5 || report.Window != 1 {
			t.Fatalf("round %d: %+v", round, report)
		}
	}

	m := env.Server.Metrics()
	if m.ReEncryptRequests != rounds || m.ReEncryptedCiphertexts != 5*rounds {
		t.Fatalf("final counters: %d requests, %d ciphertexts", m.ReEncryptRequests, m.ReEncryptedCiphertexts)
	}
	if m.ReEncryptFailures != 0 {
		t.Fatalf("%d unexpected failures", m.ReEncryptFailures)
	}
	if o := m.Owners[ownerID]; o.ReEncryptedCiphertexts != 5*rounds || o.Records != 2 {
		t.Fatalf("owner row: %+v", o)
	}
}
