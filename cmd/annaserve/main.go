// Command annaserve exposes an index built by annatrain as an HTTP JSON
// similarity-search service.
//
// Usage:
//
//	annaserve -index sift.anna -addr :8080
//	annaserve -index sift.anna -data /var/lib/anna -wal-sync always
//
// Endpoints:
//
//	POST /search  {"queries": [[...]], "w": 32, "k": 10}
//	POST /add     {"vectors": [[...]]}
//	POST /admin/snapshot  checkpoint the index, trim the WAL (needs -data)
//	GET  /admin/state     full serialized index for follower bootstrap (needs -data)
//	GET  /admin/wal/tail  WAL frames for follower catch-up (needs -data)
//	GET  /stats
//	GET  /healthz        process liveness (200 even while recovering)
//	GET  /readyz         503 until WAL recovery completes, then 200
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/queries     recent traces, slowest first
//	GET  /debug/trace/{id}  one trace by query ID
//	GET  /debug/tsdb        embedded metrics ring (unless -scrape-every < 0)
//	GET  /alerts            SLO burn-rate state
//	GET  /debug/dash        live dashboard
//	GET  /debug/pprof/*  runtime profiles (disable with -pprof=false)
//
// With -data, the served index is durable: /add batches are written to a
// checksummed WAL before acknowledgment, snapshots are atomic, and on
// restart the snapshot in the data directory is recovered with the WAL
// replayed on top (-index then only seeds a directory that has no
// snapshot yet). -wal-sync picks the fsync policy — "always" (every
// batch, the default), "none" (OS page cache), or a duration like
// "100ms" (group commit). -snapshot-every N auto-checkpoints after N
// added vectors.
//
// The process sheds load with 429 once -maxinflight searches are
// running, bounds each search by -timeout, and drains in-flight
// requests for up to -grace after SIGINT/SIGTERM before exiting (with a
// final snapshot when -data is set).
//
// Serving-path performance: every /search sends its cache misses to the
// engine through the batcher, at once while one of the -batch-concurrent
// engine slots is free; requests that arrive while all are busy are
// coalesced by the next slot to free into a shared engine batch
// (bit-exact; -batch-max caps the batch size, a larger request runs
// alone; a negative -batch-concurrent switches coalescing off), repeated
// queries are answered from a quantized-query result cache of -cache
// entries (invalidated by /add), and -tenants assigns per-API-key QoS —
// weights, token-bucket rate limits, and interactive/bulk lanes:
//
//	annaserve -index sift.anna \
//	  -batch-max 64 -cache 8192 \
//	  -tenants "web=weight:4,lane:interactive;etl=rate:500,burst:1000,lane:bulk"
//
// Observability (docs/ARCHITECTURE.md §4k): logs are structured (-log
// text|json), 1-in-N queries are traced (-trace-sample) into
// /debug/queries, requests slower than -slow are logged, and
// -recall-fvecs starts a shadow recall estimator that re-ranks sampled
// queries against exact search over that corpus and publishes live
// recall@k on /metrics. Requests arriving with an X-Anna-Trace header
// (from annarouter) are always traced as children of the caller's hop,
// queryable under the same ID on /debug/trace/{id}. An embedded tsdb
// snapshots the serving metrics every -scrape-every (/debug/tsdb), and
// -slo-latency-p99, -slo-availability and -slo-recall enable
// multi-window burn-rate SLO alerts on /alerts, with a self-contained
// live dashboard on /debug/dash.
//
// Adaptive effort (docs/ARCHITECTURE.md §4j): -adaptive enables
// per-query early termination (tuned by -stop-patience) and, on indexes
// built with rerank storage, precision escalation of a -margin band of
// candidates through SQ8 re-scoring. -recall-target T goes further and
// closes the loop: a controller reads the live shadow recall estimate
// (so -recall-fvecs is required) and walks the effort ladder — effective
// W, stop patience, escalation margin — to hold recall@k at T with
// minimum work. Knob changes are logged and exported as
// anna_adaptive_knob on /metrics:
//
//	annaserve -index sift.anna -recall-fvecs sift_base.fvecs \
//	  -adaptive -recall-target 0.95
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"anna"
	"anna/internal/dataset"
	"anna/internal/httpx"
	"anna/internal/qos"
	"anna/internal/simd"
)

// parseSyncPolicy maps the -wal-sync flag to store options: "always",
// "none", or a group-commit interval like "100ms".
func parseSyncPolicy(s string) (anna.StoreOptions, error) {
	switch s {
	case "always":
		return anna.StoreOptions{Sync: anna.SyncAlways}, nil
	case "none":
		return anna.StoreOptions{Sync: anna.SyncNone}, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return anna.StoreOptions{}, fmt.Errorf("-wal-sync must be always, none, or a positive duration (got %q)", s)
		}
		return anna.StoreOptions{Sync: anna.SyncInterval, SyncEvery: d}, nil
	}
}

// openStore recovers the store in dir, seeding it from indexPath when the
// directory holds no snapshot yet. Recovery details (replayed records,
// torn bytes) are logged by the store itself through opt.Logger.
func openStore(dir, indexPath string, opt anna.StoreOptions, logger *slog.Logger) (*anna.Store, error) {
	if anna.StoreExists(dir) {
		return anna.OpenStore(dir, opt)
	}
	idx, err := anna.LoadIndexFile(indexPath)
	if err != nil {
		return nil, fmt.Errorf("seeding %s from %s: %w", dir, indexPath, err)
	}
	logger.Info("initialising data directory", "dir", dir, "seed_index", indexPath)
	return anna.CreateStore(dir, idx, opt)
}

// newRecallEstimator loads the reference corpus and starts the shadow
// recall worker.
func newRecallEstimator(path string, metric anna.Metric, every, k int) (*anna.RecallEstimator, error) {
	mtx, err := dataset.LoadFvecsFile(path, 0)
	if err != nil {
		return nil, fmt.Errorf("reading recall corpus %s: %w", path, err)
	}
	corpus := make([][]float32, mtx.Rows)
	for i := range corpus {
		corpus[i] = mtx.Row(i)
	}
	return anna.NewRecallEstimator(corpus, metric, &anna.RecallEstimatorOptions{
		SampleEvery: every, K: k,
	})
}

func main() {
	fl := httpx.NewFlags(":8080")
	var (
		indexPath   = flag.String("index", "index.anna", "index file from annatrain")
		maxInflight = flag.Int("maxinflight", 256, "maximum concurrent /search requests before 429 (0 = unlimited)")
		timeout     = flag.Duration("timeout", 0, "per-search deadline propagated into the engine (0 = none)")
		pprofOn     = flag.Bool("pprof", true, "serve /debug/pprof/ profiles")
		withAccel   = flag.Bool("accel", false, `also serve the simulated ANNA backend (requests with "backend":"anna")`)
		dataDir     = flag.String("data", "", "durable data directory: WAL /add batches, snapshot on shutdown, recover on start (empty = serve -index in memory only)")
		walSync     = flag.String("wal-sync", "always", `WAL fsync policy: "always", "none", or a group-commit interval like "100ms"`)
		snapEvery   = flag.Int("snapshot-every", 0, "auto-snapshot after this many added vectors (0 = only /admin/snapshot and shutdown)")
		workers     = flag.Int("workers", 0, "ingest parallelism for /add and WAL replay (0 = GOMAXPROCS); the index is byte-identical for any value")
		batchMax    = flag.Int("batch-max", 64, "most queries a freed engine slot takes from the backlog as one coalesced batch")
		batchConc   = flag.Int("batch-concurrent", 0, "engine slots: engine batches executing at once, every search's misses among them (0 = GOMAXPROCS; negative disables coalescing and the bound: each request's misses run as their own batch)")
		cacheSize   = flag.Int("cache", 4096, "quantized-query result-cache entries (negative = disabled)")
		tenantsSpec = flag.String("tenants", "", `per-tenant QoS: "key=weight:4,rate:1000,burst:2000,lane:interactive,name:web;key2=lane:bulk" (empty = one default tenant)`)
		recallFvecs = flag.String("recall-fvecs", "", "fvecs reference corpus for live shadow recall estimation (empty = disabled)")
		recallEvery = flag.Int("recall-every", 100, "shadow-check 1-in-N served queries against exact search (with -recall-fvecs)")
		recallK     = flag.Int("recall-k", 10, "recall@K depth of the shadow estimator (with -recall-fvecs)")
		sloRecall   = flag.Float64("slo-recall", 0, "recall SLO: rolling shadow recall@k floor in (0,1] (requires -recall-fvecs; 0 = off)")
		adaptiveOn  = flag.Bool("adaptive", false, "per-query adaptive effort: early scan termination, plus SQ8 precision escalation on rerank-enabled indexes")
		stopPat     = flag.Int("stop-patience", 4, "stop a query's cluster scan after this many consecutive non-improving clusters (with -adaptive)")
		escMargin   = flag.Float64("margin", 0.2, "escalation band width as a fraction of the candidate score spread (with -adaptive, rerank-enabled indexes)")
		recallTgt   = flag.Float64("recall-target", 0, "recall@k SLO in (0,1]: a closed-loop controller tunes adaptive effort against the live estimator (requires -recall-fvecs)")
	)
	fl.Parse("annaserve")
	logger := fl.Logger

	// Listen before recovery: while the store replays its WAL the gate
	// answers /healthz 200 (process alive) but /readyz and everything
	// else 503 with a jittered Retry-After, so orchestrators neither
	// kill a recovering node nor route traffic to it early.
	gate := anna.NewReadinessGate()
	wait := httpx.Listen(fl.Addr, gate)
	logger.Info("listening", "addr", fl.Addr, "ready", false)

	var (
		idx   *anna.Index
		store *anna.Store
		err   error
	)
	if *dataDir != "" {
		opt, perr := parseSyncPolicy(*walSync)
		if perr != nil {
			fl.Fatal(perr.Error())
		}
		opt.Workers = *workers
		opt.Logger = logger
		store, err = openStore(*dataDir, *indexPath, opt, logger)
		if err != nil {
			fl.Fatal("opening store failed", "err", err)
		}
		idx = store.Index()
	} else {
		idx, err = anna.LoadIndexFile(*indexPath)
		if err != nil {
			fl.Fatal("loading index failed", "index", *indexPath, "err", err)
		}
		idx.SetIngestWorkers(*workers)
	}
	srv := anna.NewServer(idx)
	srv.Options = fl.Options
	srv.Limits = fl.Limits
	srv.MaxInFlight = *maxInflight
	srv.SearchTimeout = *timeout
	srv.DisablePprof = !*pprofOn
	srv.Store = store
	srv.SnapshotEvery = *snapEvery
	srv.BatchMaxSize = *batchMax
	srv.BatchMaxConcurrent = *batchConc
	srv.CacheSize = *cacheSize
	srv.SLORecall = *sloRecall
	if *tenantsSpec != "" {
		tenants, terr := qos.ParseTenants(*tenantsSpec)
		if terr != nil {
			fl.Fatal("parsing -tenants failed", "err", terr)
		}
		srv.Tenants = tenants
	}
	if *recallFvecs != "" {
		est, err := newRecallEstimator(*recallFvecs, idx.Metric(), *recallEvery, *recallK)
		if err != nil {
			fl.Fatal("starting recall estimator failed", "err", err)
		}
		defer est.Close()
		srv.Recall = est
		logger.Info("shadow recall estimator running",
			"corpus", *recallFvecs, "sample_every", *recallEvery, "k", *recallK)
	}
	if *recallTgt > 0 && srv.Recall == nil {
		fl.Fatal("-recall-target requires -recall-fvecs: the live estimator is the controller's input")
	}
	if *sloRecall > 0 && srv.Recall == nil {
		fl.Fatal("-slo-recall requires -recall-fvecs: the shadow estimator feeds the recall SLO")
	}
	if *adaptiveOn || *recallTgt > 0 {
		srv.Adaptive = anna.AdaptiveServing{
			Policy: anna.AdaptiveOptions{
				StopPatience:   *stopPat,
				MinClusters:    2,
				EscalateFactor: 4, // silently inert on indexes without rerank storage
				Margin:         float32(*escMargin),
			},
			RecallTarget: *recallTgt,
		}
		logger.Info("adaptive effort enabled",
			"stop_patience", *stopPat, "margin", *escMargin, "recall_target", *recallTgt)
	}
	if *withAccel {
		cfg := anna.DefaultAcceleratorConfig()
		if fl.DefaultK > cfg.TopK {
			cfg.TopK = fl.DefaultK
		}
		acc, err := anna.NewAccelerator(idx, cfg)
		if err != nil {
			fl.Fatal("configuring accelerator failed", "err", err)
		}
		srv.Accelerator = acc
	}

	gate.Ready(srv.Handler())
	durable := "in-memory"
	if store != nil {
		durable = fmt.Sprintf("durable in %s (wal-sync %s)", *dataDir, *walSync)
	}
	logger.Info("serving", "vectors", idx.Len(), "dim", idx.Dim(),
		"metric", idx.Metric().String(), "addr", fl.Addr, "mode", durable)
	logger.Info("simd kernels", "dispatch", simd.Dispatch(),
		"features", simd.Features(), "reason", simd.Reason())

	if err := wait(logger, fl.Grace); err != nil {
		fl.Fatal("server failed", "err", err)
	}
	// Order matters: the HTTP server has drained (or its grace expired),
	// but searches may still sit in the QoS batcher, which every engine
	// batch goes through. Drain it before the store snapshot so no
	// in-flight engine batch runs against a closing index.
	srv.Close()
	if store != nil {
		// Checkpoint so the next start replays an empty WAL. Failure is
		// not fatal: the WAL still holds everything acknowledged.
		if err := store.Snapshot(); err != nil {
			logger.Error("shutdown snapshot failed", "err", err)
		}
		if err := store.Close(); err != nil {
			logger.Error("closing store failed", "err", err)
		}
	}
	logger.Info("shut down cleanly")
}
