// Command maacs-server runs a standalone cloud storage server speaking the
// net/rpc protocol from internal/cloud. It holds no secret key material:
// it stores ciphertexts, serves downloads, and performs proxy
// re-encryption on request — the honest-but-curious server of the paper's
// system model.
//
// Usage:
//
//	maacs-server -addr 127.0.0.1:7744                        # net/rpc only
//	maacs-server -addr 127.0.0.1:7744 -http 127.0.0.1:7745   # + HTTP/JSON gateway
//	maacs-server -addr 127.0.0.1:7744 -fast                  # small test curve
//	maacs-server -addr 127.0.0.1:7744 -workers 8             # engine pool width
//	maacs-server -addr 127.0.0.1:7744 -batch-window 32       # streaming window
//	maacs-server -batch-window 32 -batch-window-target 50ms  # adaptive windows
//	maacs-server -store file -data-dir /var/lib/maacs        # durable records
//	maacs-server -response-cache-bytes 134217728             # read-path cache cap
//	maacs-server -pprof-addr 127.0.0.1:6060                  # profiling endpoints
//
// Storage backends (-store):
//
//	mem   in-memory maps; records live for the process lifetime (default)
//	file  crash-safe file store in -data-dir: segmented append-only WAL
//	      (group commit coalesces concurrent writers into one fsync),
//	      replay on start, background compaction into a snapshot file; a
//	      restarted server serves every previously committed record.
//	      -wal-segment-bytes tunes how large a segment grows before the log
//	      rotates to a fresh wal-%08d.maacs file; -compact-threshold tunes
//	      the total WAL size that wakes the background compactor (both
//	      default to the engine's built-ins: 1 MiB and 4 MiB)
//
// On SIGINT the server stops listening and closes the store, flushing the
// WAL before exit. GET /healthz reports the backend, WAL size and records
// loaded; RPC clients get the same via CloudServer.Health.
//
// Re-encryption has one entry point per transport: HTTP
// POST /owners/{id}/reencrypt/batch and RPC CloudServer.ReEncrypt, both
// streaming the request's update-info sets through bounded engine runs.
// -batch-window caps how many fuse into one run, so huge batches never pin
// the store lock, and -batch-window-target resizes later windows toward a
// wall time; requests cannot override either. A batch that fails mid-way
// reports its committed prefix and the index of the first uncommitted
// item, and the client resumes by resubmitting the items from there. The
// gateway also serves GET /metrics (Prometheus text exposition of the
// cumulative and per-owner counters; ?format=json for the JSON body, RPC
// CloudServer.Metrics for the same struct) and sets explicit
// read/write/idle timeouts so one slow client cannot pin a connection
// forever.
//
// Clients must be configured with the same pairing parameters (the built-in
// defaults on both sides match).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only when -pprof-addr is set
	"os"
	"os/signal"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/engine"
	"maacs/internal/pairing"
)

// config carries the flag settings into run.
type config struct {
	addr, httpAddr    string
	fast              bool
	batchWindow       int
	batchWindowTarget time.Duration
	store             string
	dataDir           string
	walSegmentBytes   int64
	compactThreshold  int64
	responseCache     int64
	pprofAddr         string
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7744", "net/rpc address to listen on")
	flag.StringVar(&cfg.httpAddr, "http", "", "optional HTTP/JSON gateway address (e.g. 127.0.0.1:7745)")
	flag.BoolVar(&cfg.fast, "fast", false, "use the small test curve")
	workers := flag.Int("workers", 0, "engine pool width (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.batchWindow, "batch-window", 64,
		"max update-info sets fused into one engine run per batch window (0 = whole batch)")
	flag.DurationVar(&cfg.batchWindowTarget, "batch-window-target", 0,
		"adaptive windowing: grow/shrink windows after the first toward this wall time per window (0 = fixed windows)")
	flag.StringVar(&cfg.store, "store", "mem",
		"storage backend: mem (process-lifetime maps) or file (WAL-backed, crash-safe)")
	flag.StringVar(&cfg.dataDir, "data-dir", "",
		"data directory for -store=file (required)")
	flag.Int64Var(&cfg.walSegmentBytes, "wal-segment-bytes", 0,
		"file store: WAL segment rotation threshold in bytes (0 = engine default)")
	flag.Int64Var(&cfg.compactThreshold, "compact-threshold", 0,
		"file store: total WAL bytes that wake the background compactor (0 = engine default)")
	flag.Int64Var(&cfg.responseCache, "response-cache-bytes", cloud.DefaultResponseCacheBytes,
		"encoded-response cache capacity in bytes; fetches are served from cached renderings until a mutation invalidates them (0 disables)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "",
		"optional net/http/pprof listen address (e.g. 127.0.0.1:6060); off when empty")
	flag.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second,
		"http: max time to read a request's headers")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 2*time.Minute,
		"http: max time to read a whole request")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 10*time.Minute,
		"http: max time from end of header read to end of response write (covers long re-encryptions)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute,
		"http: max keep-alive idle time")
	flag.Parse()
	engine.SetWorkers(*workers)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "maacs-server:", err)
		os.Exit(1)
	}
}

// openStore builds the configured storage backend.
func openStore(cfg config, sys *core.System) (cloud.Store, error) {
	switch cfg.store {
	case "mem":
		return cloud.NewMemStore(), nil
	case "file":
		if cfg.dataDir == "" {
			return nil, errors.New("-store=file requires -data-dir")
		}
		fstore, err := cloud.OpenFileStore(sys, cfg.dataDir)
		if err != nil {
			return nil, err
		}
		fstore.SetSegmentBytes(cfg.walSegmentBytes)
		fstore.SetCompactThreshold(cfg.compactThreshold)
		return fstore, nil
	default:
		return nil, fmt.Errorf("unknown -store %q (want mem or file)", cfg.store)
	}
}

func run(cfg config) error {
	params := pairing.Default()
	if cfg.fast {
		params = pairing.Test()
	}
	sys := core.NewSystem(params)
	store, err := openStore(cfg, sys)
	if err != nil {
		return err
	}
	server := cloud.NewServerWithStore(sys, cloud.NewAccounting(), store)
	server.SetBatchWindow(cfg.batchWindow)
	server.SetBatchWindowTarget(cfg.batchWindowTarget)
	server.SetResponseCacheBytes(cfg.responseCache)
	if cfg.pprofAddr != "" {
		// The pprof endpoints register on http.DefaultServeMux at import; a
		// dedicated listener keeps them off the public gateway.
		go func() {
			fmt.Printf("maacs-server: pprof on %s\n", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "maacs-server: pprof:", err)
			}
		}()
	}
	info := server.StoreInfo()
	fmt.Printf("maacs-server: store %s, %d record(s) loaded, wal %d bytes\n",
		info.Backend, info.Records, info.WALBytes)
	listener, bound, err := cloud.ServeRPC(sys, server, cfg.addr)
	if err != nil {
		store.Close()
		return err
	}
	fmt.Printf("maacs-server: rpc listening on %s (|r|=%d bits, |q|=%d bits)\n",
		bound, params.R.BitLen(), params.Q.BitLen())

	var httpSrv *http.Server
	if cfg.httpAddr != "" {
		httpSrv = &http.Server{
			Addr:              cfg.httpAddr,
			Handler:           cloud.NewHTTPHandler(sys, server),
			ReadHeaderTimeout: cfg.readHeaderTimeout,
			ReadTimeout:       cfg.readTimeout,
			WriteTimeout:      cfg.writeTimeout,
			IdleTimeout:       cfg.idleTimeout,
		}
		go func() {
			fmt.Printf("maacs-server: http gateway on %s (batch window %d)\n", cfg.httpAddr, cfg.batchWindow)
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "maacs-server: http:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("maacs-server: shutting down")
	if httpSrv != nil {
		if err := httpSrv.Close(); err != nil {
			listener.Close()
			server.Close()
			return err
		}
	}
	// Stop accepting work first, then flush: Close fsyncs and releases the
	// WAL, so every committed record is on disk before the process exits.
	if err := listener.Close(); err != nil {
		server.Close()
		return err
	}
	return server.Close()
}
