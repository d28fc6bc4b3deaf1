package bench

import (
	"fmt"
	"io"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// reencryptScenario is one prepared revocation: a workload, its stored
// ciphertexts, the authority's update key and the owner's update information
// — everything the server consumes, built once and re-applied to fresh
// servers so re-encryption can be timed repeatedly.
type reencryptScenario struct {
	w   *OursWorkload
	cts []*core.Ciphertext
	uk  *core.UpdateKey
	uis map[string]*core.UpdateInfo
}

// setupReencrypt builds a revocation scenario over numCTs stored ciphertexts.
func setupReencrypt(cfg Config, numCTs int) (*reencryptScenario, error) {
	w, err := SetupOurs(cfg)
	if err != nil {
		return nil, err
	}
	cts := make([]*core.Ciphertext, numCTs)
	for i := range cts {
		ct, _, err := w.Encrypt()
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	aa := w.AAs[0]
	fromV, _, err := aa.Rekey(cfg.Rnd)
	if err != nil {
		return nil, err
	}
	uk, err := aa.UpdateKeyFor(w.Owner.SecretKeyForAAs(), fromV)
	if err != nil {
		return nil, err
	}
	uiList, err := w.Owner.RevocationUpdate(uk, cts)
	if err != nil {
		return nil, err
	}
	uis := make(map[string]*core.UpdateInfo, len(uiList))
	for i, ui := range uiList {
		if ui != nil {
			uis[cts[i].ID] = ui
		}
	}
	return &reencryptScenario{w: w, cts: cts, uk: uk, uis: uis}, nil
}

// freshServer stands up a new server holding clones of the scenario's
// ciphertexts. ReEncrypt mutates stored records and the version bump makes a
// second application fail by design, so every timed run gets its own server.
func (sc *reencryptScenario) freshServer() (*cloud.Server, error) {
	srv := cloud.NewServer(sc.w.Sys, cloud.NewAccounting())
	for i, ct := range sc.cts {
		rec := &cloud.Record{
			ID:      fmt.Sprintf("rec%02d", i),
			OwnerID: sc.w.Owner.ID(),
			Components: []cloud.StoredComponent{
				{Label: "data", CT: ct.Clone()},
			},
		}
		if err := srv.Store(rec); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// updateKeys decodes n copies of the scenario's update key, each one
// request's key as a transport server decodes it: a copy has no UK1
// preparation yet, so every request that takes one pays its own. Decoding
// them before the timed runs keeps the decode out of the timings.
func (sc *reencryptScenario) updateKeys(n int) ([]*core.UpdateKey, error) {
	enc := sc.uk.Marshal()
	keys := make([]*core.UpdateKey, n)
	for i := range keys {
		uk, err := core.UnmarshalUpdateKey(sc.w.Sys.Params, enc)
		if err != nil {
			return nil, err
		}
		keys[i] = uk
	}
	return keys, nil
}

// ReEncryptPoint is one measured corpus size of the submission-pattern
// comparison: the same revocation applied through N per-ciphertext requests
// (one lock acquisition and engine run each), one batched request on a
// default server (one fused engine run while N is at most its 64-item
// window), and one windowed batched request (bounded slices, lock held per
// window).
type ReEncryptPoint struct {
	Ciphertexts  int     `json:"ciphertexts"`
	PerRequestNs int64   `json:"per_request_ns"`
	BatchedNs    int64   `json:"batched_ns"`
	WindowedNs   int64   `json:"windowed_ns"`
	Speedup      float64 `json:"speedup"`
	// Windows is the number of engine runs the windowed submission split
	// into at this corpus size.
	Windows int `json:"windows"`
	// BatchEngine is the engine activity of one batched run (jobs, cache
	// hits/misses, fan-out wall time), as reported per-request by the
	// server.
	BatchEngine engine.Stats `json:"batch_engine"`
	// Owner is the per-owner counter row the server accumulated over the
	// windowed run, as served by GET /metrics.
	Owner cloud.OwnerStats `json:"owner"`
}

// ReEncryptBatchReport is the machine-readable result of
// MeasureReEncryptBatch, written to BENCH_reencrypt.json.
type ReEncryptBatchReport struct {
	Header
	Workers int `json:"workers"`
	Trials  int `json:"trials"`
	Attrs   int `json:"attrs"`
	// Window is the per-run item cap the windowed submissions used.
	Window int              `json:"window"`
	Points []ReEncryptPoint `json:"points"`
}

// MeasureReEncryptBatch compares per-ciphertext, batched and windowed
// re-encryption submission at each corpus size: the per-request pattern
// issues one single-item Server.ReEncrypt call per ciphertext, the batched
// pattern one call with an item per ciphertext on a server with the default
// 64-item window (one fused engine run at up to 64 ciphertexts), and the
// windowed pattern the same call on a server whose SetBatchWindow is
// `window` (0 = the default). All run on the default engine pool; the
// differences isolate the submission pattern. Each request carries its own
// decoded copy of the update key, as a transport server decodes one per
// request, so each pays one UK1 preparation. The windowed run also records
// the per-owner counter row the server accumulated.
func MeasureReEncryptBatch(params *pairing.Params, rnd io.Reader, ctCounts []int, attrs, trials, window int) (*ReEncryptBatchReport, error) {
	report := &ReEncryptBatchReport{
		Header:  newHeader(params),
		Workers: engine.New(0).Workers(),
		Trials:  trials,
		Attrs:   attrs,
		Window:  window,
	}
	for _, numCTs := range ctCounts {
		cfg := Config{Params: params, Authorities: 1, AttrsPerAuthority: attrs, Rnd: rnd}
		sc, err := setupReencrypt(cfg, numCTs)
		if err != nil {
			return nil, fmt.Errorf("reencrypt bench setup n=%d: %w", numCTs, err)
		}

		// Every request, in every trial, gets its own copy of the update key.
		keys, err := sc.updateKeys(trials * (numCTs + 2))
		if err != nil {
			return nil, fmt.Errorf("reencrypt bench keys n=%d: %w", numCTs, err)
		}
		nextKey := func() *core.UpdateKey {
			uk := keys[0]
			keys[0] = nil // a spent key's preparation goes with it
			keys = keys[1:]
			return uk
		}

		perRequest, err := timeBest(0, trials, func() error {
			srv, err := sc.freshServer()
			if err != nil {
				return err
			}
			for _, ct := range sc.cts {
				one := []cloud.ReEncryptItem{{UK: nextKey(), UIs: map[string]*core.UpdateInfo{ct.ID: sc.uis[ct.ID]}}}
				if _, err := srv.ReEncrypt(sc.w.Owner.ID(), one); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("per-request n=%d: %w", numCTs, err)
		}

		// The batched and windowed patterns submit one item per ciphertext in
		// a single request, all items sharing the request's key; only the
		// server's window differs.
		items := func() []cloud.ReEncryptItem {
			uk := nextKey()
			out := make([]cloud.ReEncryptItem, len(sc.cts))
			for i, ct := range sc.cts {
				out[i] = cloud.ReEncryptItem{
					UK:  uk,
					UIs: map[string]*core.UpdateInfo{ct.ID: sc.uis[ct.ID]},
				}
			}
			return out
		}

		var batchStats engine.Stats
		batched, err := timeBest(0, trials, func() error {
			srv, err := sc.freshServer()
			if err != nil {
				return err
			}
			rep, err := srv.ReEncrypt(sc.w.Owner.ID(), items())
			if err != nil {
				return err
			}
			if rep.Ciphertexts != numCTs {
				return fmt.Errorf("bench: batched %d of %d ciphertexts", rep.Ciphertexts, numCTs)
			}
			batchStats = rep.Engine
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("batched n=%d: %w", numCTs, err)
		}

		var windows int
		var ownerStats cloud.OwnerStats
		windowed, err := timeBest(0, trials, func() error {
			srv, err := sc.freshServer()
			if err != nil {
				return err
			}
			srv.SetBatchWindow(window)
			rep, err := srv.ReEncrypt(sc.w.Owner.ID(), items())
			if err != nil {
				return err
			}
			if rep.Ciphertexts != numCTs {
				return fmt.Errorf("bench: windowed %d of %d ciphertexts", rep.Ciphertexts, numCTs)
			}
			windows = rep.Windows
			ownerStats = srv.Metrics().Owners[sc.w.Owner.ID()]
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("windowed n=%d: %w", numCTs, err)
		}

		report.Points = append(report.Points, ReEncryptPoint{
			Ciphertexts:  numCTs,
			PerRequestNs: perRequest.Nanoseconds(),
			BatchedNs:    batched.Nanoseconds(),
			WindowedNs:   windowed.Nanoseconds(),
			Speedup:      float64(perRequest.Nanoseconds()) / float64(batched.Nanoseconds()),
			Windows:      windows,
			BatchEngine:  batchStats,
			Owner:        ownerStats,
		})
	}
	return report, nil
}

// Render prints a human-readable table of the report.
func (r *ReEncryptBatchReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Re-encryption submission patterns — GOMAXPROCS=%d, workers=%d, |r|=%d bits, %d attrs, window=%d (%d trials, best-of)\n",
		r.GOMAXPROCS, r.Workers, r.RBits, r.Attrs, r.Window, r.Trials)
	fmt.Fprintf(w, "%6s %14s %14s %14s %8s %8s %8s %10s\n",
		"cts", "per-request", "batched", "windowed", "windows", "speedup", "jobs", "cache h/m")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%6d %14s %14s %14s %8d %7.2fx %8d %5d/%d\n",
			pt.Ciphertexts,
			time.Duration(pt.PerRequestNs), time.Duration(pt.BatchedNs), time.Duration(pt.WindowedNs),
			pt.Windows, pt.Speedup,
			pt.BatchEngine.Jobs,
			pt.BatchEngine.PreparedHits, pt.BatchEngine.PreparedMisses)
	}
}
