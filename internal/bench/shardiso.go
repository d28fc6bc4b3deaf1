package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// ShardIsoPoint is one backend's result in the shard-isolation experiment:
// fetch latency seen by a victim owner while an aggressor owner re-encrypts
// its own corpus in a loop on the same server.
type ShardIsoPoint struct {
	Backend string `json:"backend"`
	Shards  int    `json:"shards"`
	// FetchOps is how many victim fetches completed while the aggressor ran.
	FetchOps uint64 `json:"fetch_ops"`
	// FetchAvgNs / FetchMaxNs summarize the victim's per-fetch latency.
	FetchAvgNs int64 `json:"fetch_avg_ns"`
	FetchMaxNs int64 `json:"fetch_max_ns"`
	// ReencryptNs is the aggressor's total wall time for all its rounds.
	ReencryptNs int64 `json:"reencrypt_ns"`
}

// ShardIsoReport is the machine-readable result of MeasureShardIsolation,
// written to BENCH_shardiso.json.
type ShardIsoReport struct {
	GOMAXPROCS      int             `json:"gomaxprocs"`
	Workers         int             `json:"workers"`
	RBits           int             `json:"r_bits"`
	QBits           int             `json:"q_bits"`
	RecordsPerOwner int             `json:"records_per_owner"`
	Rounds          int             `json:"rounds"`
	Points          []ShardIsoPoint `json:"points"`
}

// shardIsoEnv is one prepared two-owner deployment: an aggressor whose
// authority will be rekeyed over and over, and a victim that only reads.
// Each owner has its own authority so the aggressor's version bumps never
// invalidate the victim's ciphertexts.
type shardIsoEnv struct {
	env      *cloud.Env
	agg, vic *cloud.OwnerClient
	aggAA    *cloud.Authority
	records  int
}

func setupShardIso(params *pairing.Params, rnd io.Reader, records int, store cloud.Store) (*shardIsoEnv, error) {
	sys := core.NewSystem(params)
	env := cloud.NewEnvWithStore(sys, rnd, store)
	if _, err := env.AddAuthority("a-agg", []string{"x"}); err != nil {
		return nil, err
	}
	if _, err := env.AddAuthority("a-vic", []string{"x"}); err != nil {
		return nil, err
	}
	agg, err := env.AddOwner("aggressor")
	if err != nil {
		return nil, err
	}
	vic, err := env.AddOwner("victim")
	if err != nil {
		return nil, err
	}
	for i := 0; i < records; i++ {
		if _, err := agg.Upload(fmt.Sprintf("agg-%03d", i), []cloud.UploadComponent{
			{Label: "data", Data: []byte("agg"), Policy: "a-agg:x"},
		}); err != nil {
			return nil, err
		}
		if _, err := vic.Upload(fmt.Sprintf("vic-%03d", i), []cloud.UploadComponent{
			{Label: "data", Data: []byte("vic"), Policy: "a-vic:x"},
		}); err != nil {
			return nil, err
		}
	}
	aggAA, _ := env.Authority("a-agg")
	return &shardIsoEnv{env: env, agg: agg, vic: vic, aggAA: aggAA, records: records}, nil
}

// run drives the contention experiment on one backend: the aggressor
// performs `rounds` full re-encryption cycles (rekey → update key → owner
// update info → server proxy re-encryption) while the victim fetches its own
// records as fast as it can. On an unsharded store the aggressor's commits
// and the victim's reads contend for the same structure; per-owner striping
// routes them to different shards.
func (se *shardIsoEnv) run(rnd io.Reader, backend string, rounds int) (ShardIsoPoint, error) {
	srv := se.env.Server
	done := make(chan struct{})
	ready := make(chan struct{})
	var readyOnce sync.Once
	var wg sync.WaitGroup
	var fetchOps uint64
	var fetchTotal, fetchMax time.Duration
	var fetchErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := fmt.Sprintf("vic-%03d", i%se.records)
			start := time.Now()
			if _, err := srv.Fetch(id); err != nil {
				fetchErr = err
				readyOnce.Do(func() { close(ready) })
				return
			}
			lat := time.Since(start)
			fetchOps++
			fetchTotal += lat
			if lat > fetchMax {
				fetchMax = lat
			}
			readyOnce.Do(func() { close(ready) })
		}
	}()
	// Don't start the aggressor until the victim's loop is actually running,
	// or a fast round could finish before the reader is ever scheduled.
	<-ready
	if fetchErr != nil {
		close(done)
		wg.Wait()
		return ShardIsoPoint{}, fmt.Errorf("victim fetch: %w", fetchErr)
	}

	reencStart := time.Now()
	var reencErr error
	for r := 0; r < rounds; r++ {
		fromV, _, err := se.aggAA.AA.Rekey(rnd)
		if err != nil {
			reencErr = err
			break
		}
		uk, err := se.aggAA.AA.UpdateKeyFor(se.agg.Owner.SecretKeyForAAs(), fromV)
		if err != nil {
			reencErr = err
			break
		}
		cts := srv.CiphertextsOf(se.agg.Owner.ID())
		uiList, err := se.agg.Owner.RevocationUpdate(uk, cts)
		if err != nil {
			reencErr = err
			break
		}
		uis := make(map[string]*core.UpdateInfo)
		for _, ui := range uiList {
			if ui != nil {
				uis[ui.CiphertextID] = ui
			}
		}
		rep, err := srv.ReEncrypt(se.agg.Owner.ID(), []cloud.ReEncryptItem{{UK: uk, UIs: uis}})
		if err != nil {
			reencErr = err
			break
		}
		if rep.Ciphertexts != se.records {
			reencErr = fmt.Errorf("bench: round %d re-encrypted %d of %d ciphertexts",
				r, rep.Ciphertexts, se.records)
			break
		}
	}
	reencNs := time.Since(reencStart).Nanoseconds()
	close(done)
	wg.Wait()
	if reencErr != nil {
		return ShardIsoPoint{}, reencErr
	}
	if fetchErr != nil {
		return ShardIsoPoint{}, fmt.Errorf("victim fetch: %w", fetchErr)
	}
	if fetchOps == 0 {
		return ShardIsoPoint{}, fmt.Errorf("bench: victim completed no fetches on %q", backend)
	}
	return ShardIsoPoint{
		Backend:     backend,
		Shards:      srv.StoreInfo().Shards,
		FetchOps:    fetchOps,
		FetchAvgNs:  fetchTotal.Nanoseconds() / int64(fetchOps),
		FetchMaxNs:  fetchMax.Nanoseconds(),
		ReencryptNs: reencNs,
	}, nil
}

// MeasureShardIsolation measures cross-owner interference on the unsharded
// in-memory store versus the per-owner sharded store: one owner's stream of
// re-encryption commits runs against another owner's fetch loop, and the
// victim's observed fetch latency is the isolation signal. Both backends see
// an identical workload (same record counts, same number of rounds).
func MeasureShardIsolation(params *pairing.Params, rnd io.Reader, recordsPerOwner, shards, rounds int) (*ShardIsoReport, error) {
	report := &ShardIsoReport{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         engine.New(0).Workers(),
		RBits:           params.R.BitLen(),
		QBits:           params.Q.BitLen(),
		RecordsPerOwner: recordsPerOwner,
		Rounds:          rounds,
	}
	backends := []struct {
		name  string
		store func() cloud.Store
	}{
		{"mem", func() cloud.Store { return cloud.NewMemStore() }},
		{"sharded-mem", func() cloud.Store { return cloud.NewShardedMemStore(shards) }},
	}
	for _, b := range backends {
		se, err := setupShardIso(params, rnd, recordsPerOwner, b.store())
		if err != nil {
			return nil, fmt.Errorf("shardiso setup %s: %w", b.name, err)
		}
		pt, err := se.run(rnd, b.name, rounds)
		if err != nil {
			return nil, fmt.Errorf("shardiso %s: %w", b.name, err)
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

// WriteJSON writes the report as indented JSON.
func (r *ShardIsoReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints a human-readable table of the report.
func (r *ShardIsoReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Shard isolation — GOMAXPROCS=%d, workers=%d, |r|=%d bits, %d records/owner, %d re-encrypt rounds\n",
		r.GOMAXPROCS, r.Workers, r.RBits, r.RecordsPerOwner, r.Rounds)
	fmt.Fprintf(w, "%-14s %7s %12s %14s %14s %14s\n",
		"backend", "shards", "fetches", "fetch avg", "fetch max", "reencrypt")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-14s %7d %12d %14s %14s %14s\n",
			pt.Backend, pt.Shards, pt.FetchOps,
			time.Duration(pt.FetchAvgNs), time.Duration(pt.FetchMaxNs), time.Duration(pt.ReencryptNs))
	}
}
