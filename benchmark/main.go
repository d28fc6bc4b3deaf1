// Command benchmark is the repository's end-to-end benchmark: it deploys the
// cloud server in-process the way cmd/maacs-server runs it (durable file
// store, HTTP gateway and net/rpc on loopback, paper-scale pairing), drives
// one workload against it from seeded inputs, checks every answer, and
// prints one JSON result line. See README.md for the workloads, the metrics
// and the layer map.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload read --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload revoke --seed 1 --seconds 25 --trace 1 --out /tmp/spans
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
//
// With --trace 0 the result carries the end-to-end metrics of one untraced
// measured pass of --seconds. With --trace 1 it carries the per-layer
// metrics: the run measures an untraced pass and then a traced one, each
// half as long.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // measured time of the run
	warmup   time.Duration
	setups   int // set-ups timed; setup_s is their median
	trace    bool
	params   *pairing.Params
	scale    scale
	dir      string    // parent of the temporary store directories
	out      string    // directory for spans.json after a traced run ("" = none)
	log      io.Writer // the human-readable report
}

func main() {
	workload := flag.String("workload", "", "workload to run: read, download, churn or revoke")
	seed := flag.Int64("seed", 1, "seed of the workload's arrivals, op choices, keys and payloads")
	seconds := flag.Int("seconds", 25, "measured seconds of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an added traced pass")
	out := flag.String("out", "", "directory to write spans.json to after a traced run")
	cmp := flag.Bool("compare", false, "compare two acceptance files (JSON lines from acceptance.sh) given as arguments")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files")
			os.Exit(2)
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload read|download|churn|revoke, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		warmup:   3 * time.Second,
		setups:   6,
		trace:    *trace == 1,
		params:   pairing.Default(),
		scale:    paperScale,
		dir:      ".bench_build",
		out:      *out,
		log:      os.Stderr,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// counters is a snapshot of the process-wide counters a pass is measured
// by.
type counters struct {
	at     time.Time
	cpu    time.Duration // user + system time of the process
	alloc  uint64        // cumulative heap bytes allocated
	gcCPU  float64       // cumulative GC CPU seconds
	engine engine.Stats
	cache  cloud.ResponseCacheStats
	store  cloud.StoreInfo
	writes uint64
	readB  int64
}

var gcMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapshot(b *bench) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcMetric)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		gcCPU:  gcMetric[0].Value.Float64(),
		engine: engine.SnapshotStats(),
		cache:  b.dep.server.ResponseCacheStats(),
		store:  b.dep.store.Info(),
		writes: b.dep.store.writes.Load(),
		readB:  b.read.Load(),
	}
}

// liveHeapMiB is the heap still reachable after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measured is one measured pass with the counters around it.
type measured struct {
	rec         *recorder
	start, stop counters
	heapMiB     float64
	spans       []span
}

// run sets the workload up, warms it up and measures it, and then sets it up
// again: setup_s is the median of cfg.setups set-ups, half of them timed
// before the measurement and half after it. The host has fast and slow
// phases lasting seconds to minutes; set-ups timed back to back mostly fell
// into one of them, and setup_s took that phase's value.
func run(cfg *config) (*result, error) {
	fmt.Fprintf(cfg.log, "benchmark %s: seed %d, %v measured, trace %v, GOMAXPROCS %d, nproc %d, |r| %d bits, |q| %d bits\n",
		cfg.workload, cfg.seed, cfg.measure, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cfg.params.R.BitLen(), cfg.params.Q.BitLen())
	var setupS []float64
	b, err := setUp(cfg, cfg.setups/2, &setupS)
	if err != nil {
		return nil, err
	}
	res, plain, err := measureAll(cfg, b)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if b, err = setUp(cfg, cfg.setups-len(setupS), &setupS); err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "set-up times %.3f s\n", setupS)
	if !cfg.trace {
		if err := res.fill(endToEnd, endToEndValues(plain, setupS)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp sets the workload up n times (n >= 1), appending each set-up's time
// to times, and returns the last deployment, having closed the others.
func setUp(cfg *config, n int, times *[]float64) (*bench, error) {
	var b *bench
	for i := 0; i < n; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if b, err = setup(cfg); err != nil {
			return nil, err
		}
		*times = append(*times, time.Since(start).Seconds())
	}
	return b, nil
}

// measureAll warms b up and measures it. It returns the result with its
// counts and correctness set and, for a traced run, its per-layer metrics,
// and the untraced pass the end-to-end metrics come from.
func measureAll(cfg *config, b *bench) (*result, *measured, error) {
	seq := 0
	measure := func(dur time.Duration, tr *tracer) *measured {
		seq++
		p := &pass{rng: rand.New(rand.NewPCG(uint64(cfg.seed), uint64(seq))), dur: dur, tr: tr, rec: &recorder{}}
		m := &measured{rec: p.rec, start: snapshot(b)}
		b.dep.sw.cur.Store(tr)
		b.run(p)
		b.dep.sw.cur.Store(nil)
		m.stop = snapshot(b)
		m.heapMiB = liveHeapMiB() - float64(p.rec.sampleBytes())/(1<<20)
		if tr != nil {
			m.spans = tr.spans
		}
		return m
	}
	// A traced run splits its time between the untraced and the traced pass,
	// so every run takes the same time.
	dur := cfg.measure
	if cfg.trace {
		dur /= 2
	}
	warm := measure(cfg.warmup, nil)
	plain := measure(dur, nil)
	passes := []*measured{warm, plain}
	report(cfg.log, "untraced", plain)

	res := &result{}
	if cfg.trace {
		traced := measure(dur, newTracer())
		passes = append(passes, traced)
		report(cfg.log, "traced", traced)
		a := newAnatomy(traced.spans)
		a.report(cfg.log)
		err := res.fill(perLayer, layerValues(plain, traced, a))
		if err == nil && cfg.out != "" {
			err = writeSpans(cfg.out, traced.spans)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	res.Correct = true
	for _, m := range passes {
		if m.rec.wrong > 0 {
			res.Correct = false
		}
		if m == warm {
			continue
		}
		ok, failed := m.rec.totals()
		res.Attempted += ok + failed
		res.Failed += failed
	}
	return res, plain, nil
}

// report prints a pass's per-op-type latencies and failures.
func report(w io.Writer, name string, m *measured) {
	r := m.rec
	ok, failed := r.totals()
	fmt.Fprintf(w, "%s pass: %d ops in %.2f s, %d failed (%d shed, %d wrong), lag p99 %.3f ms\n",
		name, ok, m.stop.at.Sub(m.start.at).Seconds(), failed, r.shedN, r.wrong, durQuantile(r.lags, 0.99, time.Millisecond))
	for k := kindRead; k < numKinds; k++ {
		if n := len(r.lat[k]); n > 0 {
			fmt.Fprintf(w, "  %-10s n=%-7d p50 %9.4f ms  p90 %9.4f ms  p99 %9.4f ms\n", k, n,
				durQuantile(r.lat[k], 0.50, time.Millisecond), durQuantile(r.lat[k], 0.90, time.Millisecond),
				durQuantile(r.lat[k], 0.99, time.Millisecond))
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
}

// endToEndValues computes the end-to-end metrics from the untraced pass.
func endToEndValues(m *measured, setupS []float64) map[string]float64 {
	ok, _ := m.rec.totals()
	return map[string]float64{
		"setup_s":       quantile(setupS, 0.5),
		"p50_ms":        m.rec.typical(0.50, time.Millisecond),
		"p90_ms":        m.rec.typical(0.90, time.Millisecond),
		"ops_per_s":     ratio(float64(ok), m.stop.at.Sub(m.start.at).Seconds()),
		"cpu_ms_per_op": ratio(float64(m.stop.cpu-m.start.cpu)/1e6, float64(ok)),
		"heap_live_mb":  m.heapMiB,
	}
}

// layerValues computes the per-layer metrics: times per call from the traced
// pass's spans, everything else from the untraced pass.
func layerValues(plain, traced *measured, a *anatomy) map[string]float64 {
	r, s, e := plain.rec, plain.start, plain.stop
	ok, _ := r.totals()
	ms, us := time.Millisecond, time.Microsecond
	eng := e.engine.Delta(s.engine)
	hits, misses := float64(e.cache.Hits-s.cache.Hits), float64(e.cache.Misses-s.cache.Misses)
	overhead := 0.0
	if p50 := r.typical(0.5, ms); p50 > 0 {
		overhead = 100 * (traced.rec.typical(0.5, ms) - p50) / p50
	}
	return map[string]float64{
		"client.read_p50_ms":                durQuantile(r.lat[kindRead], 0.50, ms),
		"client.read_p95_ms":                durQuantile(r.lat[kindRead], 0.95, ms),
		"client.upload_p50_ms":              durQuantile(r.lat[kindUpload], 0.50, ms),
		"client.upload_p95_ms":              durQuantile(r.lat[kindUpload], 0.95, ms),
		"client.delete_p50_ms":              durQuantile(r.lat[kindDelete], 0.50, ms),
		"client.delete_p95_ms":              durQuantile(r.lat[kindDelete], 0.95, ms),
		"client.revoke_p50_ms":              durQuantile(r.lat[kindRevoke], 0.50, ms),
		"client.revoke_p90_ms":              durQuantile(r.lat[kindRevoke], 0.90, ms),
		"client.fetch_http_p50_us":          durQuantile(r.lat[kindFetchHTTP], 0.50, us),
		"client.fetch_rpc_p50_us":           durQuantile(r.lat[kindFetchRPC], 0.50, us),
		"loadgen.lag_p99_ms":                durQuantile(r.lags, 0.99, ms),
		"loadgen.queue_wait_p95_ms":         durQuantile(r.waits, 0.95, ms),
		"core.decrypt_ms":                   a.mean(layerCoreDecrypt, ms),
		"core.encrypt_ms":                   a.mean(layerCoreEncrypt, ms),
		"core.update_info_ms":               a.mean(layerCoreUpdateInfo, ms),
		"core.key_update_ms":                a.mean(layerCoreKeyUpdate, ms),
		"engine.reencrypt_ms":               a.mean(layerEngine, ms),
		"engine.windows_per_revoke":         ratio(float64(r.windows), float64(r.revokes)),
		"engine.exp_cache_hit_ratio":        ratio(float64(eng.ExpHits), float64(eng.ExpHits+eng.ExpMisses)),
		"engine.prepared_cache_hit_ratio":   ratio(float64(eng.PreparedHits), float64(eng.PreparedHits+eng.PreparedMisses)),
		"hybrid.open_us":                    a.mean(layerHybridOpen, us),
		"hybrid.seal_us":                    a.mean(layerHybridSeal, us),
		"wire.ct_decode_ms":                 a.mean(layerWireDecode, ms),
		"wire.encode_us":                    a.mean(layerWireEncode, us),
		"transport.http_self_us":            a.transportSelf(layerHTTP, us),
		"transport.rpc_self_us":             a.transportSelf(layerRPC, us),
		"transport.resp_bytes_per_op":       ratio(float64(e.readB-s.readB), float64(ok)),
		"server.fetch_self_us":              a.serverSelf(layerServerFetch, us),
		"server.store_self_ms":              a.serverSelf(layerServerUpload, ms),
		"server.delete_self_us":             a.serverSelf(layerServerDelete, us),
		"server.reencrypt_self_ms":          a.serverSelf(layerServerReencrypt, ms),
		"server.respcache_hit_ratio":        ratio(hits, hits+misses),
		"server.respcache_evictions_per_op": ratio(float64(e.cache.Evictions-s.cache.Evictions), float64(ok)),
		"store.get_us":                      a.mean(layerStoreGet, us),
		"store.put_ms":                      a.mean(layerStorePut, ms),
		"store.delete_ms":                   a.mean(layerStoreDelete, ms),
		"store.replace_ms":                  a.mean(layerStoreReplace, ms),
		"store.scan_ms":                     a.mean(layerStoreScan, ms),
		"store.fsyncs_per_write":            ratio(float64(e.store.WALFsyncs-s.store.WALFsyncs), float64(e.writes-s.writes)),
		"store.compactions":                 float64(e.store.Compactions - s.store.Compactions),
		"runtime.alloc_kb_per_op":           ratio(float64(e.alloc-s.alloc)/1024, float64(ok)),
		"runtime.gc_cpu_pct":                100 * ratio(e.gcCPU-s.gcCPU, (e.cpu-s.cpu).Seconds()),
		"anatomy.unattributed_pct":          a.unattributedPct(),
		"trace.overhead_pct":                overhead,
	}
}
