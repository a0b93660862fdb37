package anna

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/adaptive"
	"anna/internal/httpx"
	"anna/internal/metrics"
	"anna/internal/qos"
	"anna/internal/slo"
	"anna/internal/trace"
	"anna/internal/tsdb"
	"anna/internal/wire"
)

// Server wraps an Index behind an HTTP JSON API — the deployment shape
// of a similarity-search service (the paper's motivating recommender /
// semantic-search backends). Endpoints:
//
//	POST /search  {"queries": [[...]], "w": 32, "k": 10}
//	              -> {"results": [[{"id":..,"score":..},...]]}
//	POST /add     {"vectors": [[...]]} -> {"first_id": N, "count": M}
//	              (both also speak internal/wire's binary frames: a request
//	              with Content-Type application/x-anna-frame is answered
//	              in kind; errors are JSON either way)
//	GET  /stats   -> index statistics + serving latency quantiles
//	POST /admin/snapshot -> checkpoint the index and trim the WAL
//	              (requires a Store; see below)
//	GET  /admin/state -> full serialized index for follower bootstrap,
//	              stamped X-Anna-Epoch/X-Anna-Seq (requires a Store)
//	GET  /admin/wal/tail?epoch=E&from=N -> WAL frames from seq N for
//	              follower catch-up; 410 Gone after a snapshot trim
//	GET  /healthz -> 200 ok (liveness)
//	GET  /readyz  -> 200 ready (readiness; a booting process answers
//	              503 through ReadinessGate until recovery completes)
//	GET  /metrics -> Prometheus text exposition (see docs/ARCHITECTURE.md
//	                 for the full metric list)
//	GET  /debug/queries     -> recent sampled/slow query traces, slowest first
//	GET  /debug/trace/{id}  -> one trace by query ID
//	GET  /debug/tsdb, /alerts, /debug/dash -> embedded tsdb, SLO burn-rate
//	              alerts, live dashboard (unless ScrapeEvery < 0)
//	GET  /debug/pprof/* -> runtime profiles (unless DisablePprof)
//
// A /search or /add body over httpx.MaxBody is refused with 413.
//
// Every /search response carries an X-Request-ID header: the client's,
// when it sent one (such a query is always traced), or a generated ID
// otherwise. Beyond the explicit opt-in, 1-in-TraceSampleEvery queries
// are traced, and any query slower than SlowQuery is captured and
// logged even when it missed the sample.
//
// Add is serialised against searches with a read-write lock; searches
// run concurrently. Every request is recorded into the server's metrics
// registry: request counts and latency per handler and status code, and
// per-stage engine timings (cluster select / list scan / top-k merge)
// per search.
type Server struct {
	mu  sync.RWMutex
	idx *Index
	// Limits bound each /search request and fill its omitted knobs.
	httpx.Limits
	// Accelerator, when set, lets requests with "backend":"anna" run on
	// the simulated ANNA instead of the software engine; the response
	// then carries the simulated cost (cycles, traffic, energy).
	Accelerator *Accelerator
	// MaxInFlight caps concurrently admitted /search requests; excess
	// requests are rejected immediately with 429 so overload sheds load
	// instead of queueing without bound. Zero means unlimited.
	MaxInFlight int
	// SearchTimeout, when positive, bounds each /search request: the
	// deadline propagates through context into the engine's worker pool,
	// which abandons the batch mid-scan, and the client gets 504.
	SearchTimeout time.Duration
	// DisablePprof removes the /debug/pprof endpoints from Handler.
	DisablePprof bool
	// Options are the logging, tracing and SLO knobs the Server shares
	// with cluster.Router. The trace knobs are read at the first request,
	// the scrape and SLO knobs at Handler time.
	httpx.Options
	// Recall, when set, shadow-checks a sample of served software-backend
	// queries against exact search and publishes live recall@k metrics
	// through /metrics. See RecallEstimator.
	Recall *RecallEstimator
	// Store, when set, makes /add durable: each accepted batch is
	// appended to the write-ahead log (fsynced per the store's sync
	// policy) before the in-memory apply and the acknowledgment, and
	// POST /admin/snapshot checkpoints the index and trims the WAL.
	// Store.Index() must be the same Index the server wraps.
	Store *Store
	// SnapshotEvery, when positive with Store set, auto-checkpoints
	// after that many vectors have been added since the last snapshot.
	SnapshotEvery int
	// BatchMaxSize caps the queries a freed slot takes from the backlog
	// as one coalesced batch (default 64).
	BatchMaxSize int
	// BatchMaxConcurrent is the number of engine slots of the dynamic
	// batcher: coalesced batches executing at once (default GOMAXPROCS,
	// applied by qos.NewBatcher), through which every software /search
	// sends its cache misses as one member. The batcher is
	// work-conserving: a request that finds a free engine slot runs at
	// once, and only requests that arrive while every slot is busy are
	// coalesced, by the next slot to free, into one ClusterMajor engine
	// batch. Coalescing is bit-exact with
	// per-request execution — the engine's per-query state is independent
	// of batch composition — it only amortizes cluster selection and
	// inverted-list loads the way the paper's Figure 5 batches do. The
	// slot bound is what makes queries coalesce and gives the QoS lanes
	// teeth: overload backs up in the batcher queue — where
	// interactive-lane requests are dequeued ahead of bulk — instead of
	// racing into the engine in arrival order. Negative runs each
	// request's misses inline as their own batch, with no slot bound.
	BatchMaxConcurrent int
	// CacheSize bounds the result cache in entries (default 4096;
	// negative disables it). The cache is keyed on the index's own PQ
	// code of the query plus (w, k); only the software backend is
	// cached, hits require the exact query vector, and every /add
	// invalidates the whole cache (generation-checked, so a search that
	// raced the add can never store a stale row).
	CacheSize int
	// Tenants maps API keys (X-API-Key header, or Authorization:
	// Bearer) to QoS classes: token-bucket quotas, weighted-fair batch
	// share, and the interactive/bulk lane. Nil serves all traffic as
	// one unlimited interactive tenant.
	Tenants *qos.Tenants
	// Adaptive configures per-query effort: a static early-termination /
	// precision-escalation policy applied to every software search, or —
	// with RecallTarget set and Recall attached — a closed-loop
	// controller that tunes the policy against the live recall estimate.
	// Set before the first request, like the trace knobs.
	Adaptive AdaptiveServing
	// SLORecall enables the recall SLO: the rolling shadow-recall
	// estimate (requires Recall) must not dip under this target on more
	// than 1% of scrapes. Zero disables it.
	SLORecall float64

	adaptOnce sync.Once                      // registers adaptive metrics / starts the controller once
	ctrlOnce  sync.Once                      // Close stops the controller exactly once
	knobs     atomic.Pointer[adaptive.Knobs] // controller operating point (nil = static policy)
	effort    atomic.Int64                   // controller effort level, surfaced in traces
	ctrlStop  chan struct{}
	ctrlDone  chan struct{}

	inflight   atomic.Int64
	addedSince atomic.Int64 // vectors added since the last snapshot
	durOnce    sync.Once    // registers durability metrics exactly once
	recallOnce sync.Once    // registers recall metrics exactly once
	qosOnce    sync.Once    // builds batcher/cache exactly once
	batcher    *qos.Batcher[servedRow]
	cache      atomic.Pointer[qos.Cache[servedRow]]
	m          *serverMetrics
	front      *httpx.Front
}

// servedRow is one query's served results plus the cache generation
// they were computed at (see qos.Cache) and the stage timings of the
// engine batch that produced them, which a traced request reports as
// its select/scan/merge spans.
type servedRow struct {
	res    []Result
	gen    uint64
	stages trace.Stages
	effort int
}

// AdaptiveServing configures the serving layer's per-query effort (see
// docs/ARCHITECTURE.md §4j). The zero value disables everything.
type AdaptiveServing struct {
	// Policy is the static per-query effort policy applied to every
	// software search. Under a RecallTarget controller it instead seeds
	// the effort ladder: Policy.StopPatience becomes the cheap end's
	// patience and Policy.EscalateFactor/Margin the escalation knobs at
	// full effort.
	Policy AdaptiveOptions
	// RecallTarget, in (0, 1], enables the closed-loop controller: it
	// reads the shadow recall estimator (Server.Recall must be set) and
	// walks an effort ladder — effective W, stop patience, escalation
	// margin — to hold the rolling recall at the target with minimum
	// work. Knob changes are logged and exported as anna_adaptive_knob.
	RecallTarget float64
	// Interval is the controller tick (default 1s).
	Interval time.Duration
	// MinW / MaxW bound the controller's effective-W ladder (defaults
	// max(1, DefaultW/8) and DefaultW). The effective W applies only to
	// requests that do not pin their own "w".
	MinW, MaxW int
	// Levels / Hysteresis / MinSamples / Deadband tune the controller
	// (defaults per adaptive.ControllerConfig).
	Levels     int
	Hysteresis int
	MinSamples uint64
	Deadband   float64
}

// active reports whether any adaptive behaviour is configured.
func (a AdaptiveServing) active() bool {
	return a.Policy.Enabled() || a.RecallTarget > 0
}

// adaptiveKnobs returns the operating point for the next search: the
// controller's current knobs when the closed loop runs, the static
// policy otherwise. ok is false when adaptive serving is off entirely.
func (s *Server) adaptiveKnobs() (kn adaptive.Knobs, effort int, ok bool) {
	if k := s.knobs.Load(); k != nil {
		return *k, int(s.effort.Load()), true
	}
	p := s.Adaptive.Policy
	if !p.Enabled() {
		return adaptive.Knobs{}, 0, false
	}
	return adaptive.Knobs{
		StopPatience:   p.StopPatience,
		MinClusters:    p.MinClusters,
		EscalateFactor: p.EscalateFactor,
		Margin:         p.Margin,
	}, 0, true
}

// controllerConfig builds the effort ladder from the serving knobs. The
// cheap end terminates scans aggressively at a narrow W with no
// escalation; the expensive end scans MaxW clusters with patience equal
// to the full width (termination effectively off) and the configured
// escalation margin. Start is the top — the controller relaxes downward
// from the safe operating point.
func (s *Server) controllerConfig() adaptive.ControllerConfig {
	a := s.Adaptive
	p := a.Policy
	maxW := a.MaxW
	if maxW <= 0 {
		maxW = s.DefaultW
	}
	if maxW < 1 {
		maxW = 32
	}
	minW := a.MinW
	if minW <= 0 {
		minW = maxW / 8
	}
	if minW < 1 {
		minW = 1
	}
	minc := p.MinClusters
	if minc < 1 {
		minc = 1
	}
	patLow := p.StopPatience
	if patLow <= 0 {
		patLow = 1
	}
	levels := a.Levels
	if levels <= 0 {
		levels = 8
	}
	return adaptive.ControllerConfig{
		Target:     a.RecallTarget,
		Deadband:   a.Deadband,
		Hysteresis: a.Hysteresis,
		MinSamples: a.MinSamples,
		Low: adaptive.Knobs{W: minW, StopPatience: patLow, MinClusters: minc,
			EscalateFactor: p.EscalateFactor, Margin: 0},
		High: adaptive.Knobs{W: maxW, StopPatience: maxW, MinClusters: minc,
			EscalateFactor: p.EscalateFactor, Margin: p.Margin},
		Levels: levels,
		Start:  levels,
	}
}

// initAdaptive registers the adaptive instruments and, when a
// RecallTarget is set with an estimator attached, starts the controller
// goroutine. Idempotent, called from Handler.
func (s *Server) initAdaptive() {
	if !s.Adaptive.active() {
		return
	}
	s.adaptOnce.Do(func() {
		reg := s.m.reg
		s.m.adaptClusters = reg.Counter("anna_adaptive_clusters_scanned",
			"Inverted lists scanned by adaptive searches (fewer than queries*W under early termination).")
		s.m.adaptEsc = reg.Counter("anna_adaptive_escalations_total",
			"Candidates re-scored through the SQ8 precision-escalation band.")
		knob := func(name string, get func(kn adaptive.Knobs, effort int) float64) {
			reg.GaugeFunc("anna_adaptive_knob",
				"Current adaptive operating point by knob.",
				func() float64 { kn, eff, _ := s.adaptiveKnobs(); return get(kn, eff) },
				metrics.Label{Key: "name", Value: name})
		}
		knob("w", func(kn adaptive.Knobs, _ int) float64 {
			if kn.W > 0 {
				return float64(kn.W)
			}
			return float64(s.DefaultW)
		})
		knob("stop_patience", func(kn adaptive.Knobs, _ int) float64 { return float64(kn.StopPatience) })
		knob("escalate_factor", func(kn adaptive.Knobs, _ int) float64 { return float64(kn.EscalateFactor) })
		knob("margin", func(kn adaptive.Knobs, _ int) float64 { return float64(kn.Margin) })
		knob("effort", func(_ adaptive.Knobs, eff int) float64 { return float64(eff) })

		if s.Adaptive.RecallTarget <= 0 || s.Recall == nil {
			return
		}
		ctrl := adaptive.NewController(s.controllerConfig())
		kn := ctrl.Knobs()
		s.knobs.Store(&kn)
		s.effort.Store(int64(ctrl.Level()))
		interval := s.Adaptive.Interval
		if interval <= 0 {
			interval = time.Second
		}
		s.ctrlStop = make(chan struct{})
		s.ctrlDone = make(chan struct{})
		go s.controllerLoop(ctrl, interval)
	})
}

// controllerLoop drives the recall-SLO controller: each tick feeds the
// estimator's rolling recall and processed-sample count into the state
// machine and publishes the resulting knobs for searches to pick up.
func (s *Server) controllerLoop(ctrl *adaptive.Controller, interval time.Duration) {
	defer close(s.ctrlDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctrlStop:
			return
		case <-t.C:
			rolling := s.Recall.Rolling()
			_, _, _, processed := s.Recall.Stats()
			kn, changed := ctrl.Observe(rolling, processed)
			if !changed {
				continue
			}
			k := kn
			s.knobs.Store(&k)
			s.effort.Store(int64(ctrl.Level()))
			s.Log().Info("adaptive controller stepped",
				"recall", rolling,
				"target", s.Adaptive.RecallTarget,
				"effort", ctrl.Level(), "max_effort", ctrl.MaxLevel(),
				"w", kn.W, "stop_patience", kn.StopPatience,
				"escalate_factor", kn.EscalateFactor, "margin", kn.Margin,
				"steps", ctrl.Steps())
		}
	}
}

// serverMetrics bundles the registry and the pre-created instruments of
// the serving path (dynamically labelled series — the per-status-code
// request counters — are fetched from the registry on demand).
type serverMetrics struct {
	reg *metrics.Registry

	stage       map[string]*metrics.Histogram // select / scan / merge
	queries     *metrics.Counter
	scanned     *metrics.Counter
	listBytes   *metrics.Counter
	rejected    *metrics.Counter
	added       *metrics.Counter
	batchSize   *metrics.Histogram
	batchWait   *metrics.Histogram
	flushes     *metrics.Counter
	rejectDepth *metrics.Histogram
	walAppend   *metrics.Histogram
	walFsync    *metrics.Histogram
	snapDur     *metrics.Histogram

	// adaptive instruments, nil until initAdaptive.
	adaptClusters *metrics.Counter
	adaptEsc      *metrics.Counter
}

// stageNames are the per-request engine stage histograms exported as
// anna_stage_duration_seconds{stage=...}. rerank only observes non-zero
// values under adaptive precision escalation.
var stageNames = []string{"select", "scan", "rerank", "merge"}

func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:   reg,
		stage: map[string]*metrics.Histogram{},
		queries: reg.Counter("anna_search_queries_total",
			"Queries executed by the software engine."),
		scanned: reg.Counter("anna_scanned_vectors_total",
			"(query, vector) similarity computations performed."),
		listBytes: reg.Counter("anna_list_bytes_read_total",
			"Inverted-list code bytes read by scans."),
		rejected: reg.Counter("anna_rejected_requests_total",
			"Requests rejected at admission.", metrics.Label{Key: "reason", Value: "overload"}),
		added: reg.Counter("anna_added_vectors_total",
			"Vectors ingested through /add."),
		batchSize: reg.Histogram("anna_batch_size_queries",
			"Queries per coalesced engine batch.", metrics.ExpBuckets(1, 2, 11)),
		batchWait: reg.Histogram("anna_batch_coalesce_wait_seconds",
			"Time a query spent queued behind busy engine slots before its batch started.",
			metrics.ExpBuckets(50e-6, 2, 16)),
		flushes: reg.Counter("anna_batch_flushes_total",
			"Coalesced engine batches executed."),
		rejectDepth: reg.Histogram("anna_rejected_queue_depth",
			"Batcher queue depth observed at each 429 rejection.",
			metrics.ExpBuckets(1, 2, 16)),
	}
	for _, st := range stageNames {
		m.stage[st] = reg.Histogram("anna_stage_duration_seconds",
			"Per-request engine stage time, summed across workers.", nil,
			metrics.Label{Key: "stage", Value: st})
	}
	reg.GaugeFunc("anna_inflight_requests",
		"Admitted /search requests currently executing.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("anna_engine_queue_depth",
		"Engine work items admitted to the worker pool but not yet started.",
		func() float64 { q, _ := s.idx.EnginePoolStats(); return float64(q) })
	reg.GaugeFunc("anna_engine_inflight_queries",
		"Engine work items executing on workers right now.",
		func() float64 { _, f := s.idx.EnginePoolStats(); return float64(f) })
	reg.GaugeFunc("anna_index_vectors",
		"Vectors in the index.",
		func() float64 { s.mu.RLock(); defer s.mu.RUnlock(); return float64(s.idx.Len()) })
	reg.GaugeFunc("anna_batch_queue_depth",
		"Queries parked in the dynamic batcher awaiting a free engine slot.",
		func() float64 { return float64(s.batcher.QueueDepth()) })
	reg.GaugeFunc("anna_cache_entries",
		"Entries in the result cache.",
		func() float64 {
			if c := s.cache.Load(); c != nil {
				return float64(c.Len())
			}
			return 0
		})
	cacheStat := func(pick func(h, m, e, i uint64) uint64) func() uint64 {
		return func() uint64 {
			if c := s.cache.Load(); c != nil {
				return pick(c.Stats())
			}
			return 0
		}
	}
	reg.CounterFunc("anna_cache_hits_total", "Result-cache hits.",
		cacheStat(func(h, _, _, _ uint64) uint64 { return h }))
	reg.CounterFunc("anna_cache_misses_total", "Result-cache misses.",
		cacheStat(func(_, m, _, _ uint64) uint64 { return m }))
	reg.CounterFunc("anna_cache_evictions_total", "Result-cache LRU evictions.",
		cacheStat(func(_, _, e, _ uint64) uint64 { return e }))
	reg.CounterFunc("anna_cache_invalidations_total", "Result-cache invalidations (corpus changes).",
		cacheStat(func(_, _, _, i uint64) uint64 { return i }))
	metrics.RegisterRuntime(reg)
	return m
}

// NewServer returns a Server for idx.
func NewServer(idx *Index) *Server {
	s := &Server{idx: idx, Limits: httpx.Limits{MaxBatch: 1024, DefaultW: 32, DefaultK: 10}}
	s.m = newServerMetrics(s)
	s.front = httpx.NewFront(&s.Options, s.m.reg, "search", "add", "stats", "snapshot", "state", "tail")
	return s
}

// Metrics returns the server's metrics registry, so embedding programs
// can export their own instruments through the same /metrics endpoint.
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// registerDurable creates the durability instruments once a Store is
// attached. Idempotent: Handler may be called more than once, but the
// recovery counter must be seeded and the fsync hook installed exactly
// once.
func (s *Server) registerDurable() {
	if s.Store == nil {
		return
	}
	s.durOnce.Do(func() {
		reg := s.m.reg
		s.m.walAppend = reg.Histogram("anna_wal_append_duration_seconds",
			"WAL append latency per /add batch, including fsync under SyncAlways.", nil)
		s.m.walFsync = reg.Histogram("anna_wal_fsync_duration_seconds",
			"WAL fsync latency per sync call.", nil)
		s.Store.SetSyncObserver(s.m.walFsync.ObserveDuration)
		s.m.snapDur = reg.Histogram("anna_snapshot_duration_seconds",
			"Snapshot write duration (atomic save, fsync, WAL trim).", nil)
		reg.GaugeFunc("anna_snapshot_size_bytes",
			"Byte size of the last written snapshot.",
			func() float64 { _, size, _ := s.Store.SnapshotStats(); return float64(size) })
		reg.CounterFunc("anna_snapshots_total",
			"Snapshots written (manual, automatic, and shutdown).",
			func() uint64 { _, _, n := s.Store.SnapshotStats(); return n })
		fsyncs := reg.Counter("anna_wal_fsync_total", "WAL fsync calls.")
		s.Store.SetOnSync(fsyncs.Inc)
		reg.Counter("anna_recovery_replayed_records_total",
			"WAL records replayed onto the snapshot at startup.").
			Add(uint64(s.Store.ReplayedRecords()))
		reg.GaugeFunc("anna_last_snapshot_age_seconds",
			"Seconds since the snapshot was last written.",
			func() float64 { return time.Since(s.Store.LastSnapshot()).Seconds() })
		reg.GaugeFunc("anna_wal_records",
			"Records in the live WAL segment.",
			func() float64 { return float64(s.Store.WALRecords()) })
		reg.GaugeFunc("anna_wal_size_bytes",
			"Byte length of the live WAL segment.",
			func() float64 { return float64(s.Store.WALSize()) })
	})
}

// registerRecall publishes the attached RecallEstimator's instruments
// through the server registry exactly once.
func (s *Server) registerRecall() {
	if s.Recall == nil {
		return
	}
	s.recallOnce.Do(func() { s.Recall.Register(s.m.reg) })
}

// initQoS builds the dynamic batcher, result cache, and tenant table
// from the Batch*/CacheSize/Tenants knobs exactly once (set them before
// the first request, like the trace knobs).
func (s *Server) initQoS() {
	s.qosOnce.Do(func() {
		if s.CacheSize >= 0 {
			size := s.CacheSize
			if size == 0 {
				size = 4096
			}
			s.cache.Store(qos.NewCache[servedRow](size))
		}
		s.batcher = qos.NewBatcher(s.searchLocked, qos.BatcherOptions{
			MaxBatch:      s.BatchMaxSize,
			MaxConcurrent: s.BatchMaxConcurrent,
			Observer: qos.Observer{
				Flush: func(size int) {
					s.m.flushes.Inc()
					s.m.batchSize.Observe(float64(size))
				},
				Wait: s.m.batchWait.ObserveDuration,
			},
		})
		if s.Tenants == nil {
			s.Tenants = qos.NewTenants(qos.TenantConfig{})
		}
	})
}

// Close releases the server's background resources: it closes the
// batcher and waits until every in-flight engine batch has executed
// and fanned its results out, so the index and store underneath can be
// snapshotted and torn down without racing a search; a later search is
// answered 503.
func (s *Server) Close() {
	if s.ctrlStop != nil {
		s.ctrlOnce.Do(func() { close(s.ctrlStop) })
		<-s.ctrlDone
	}
	s.initQoS() // a server whose Handler was never built has a batcher too
	s.batcher.Drain()
	s.front.Close()
}

// searchLocked runs one software-backend engine batch under the read
// lock and feeds the shared metrics/recall instruments. It is the
// batcher's RunFunc, one call per engine batch. The cache
// generation is snapshotted under the same lock the engine runs under,
// so a row carrying it can never be stored after an invalidation that
// its search did not observe.
func (s *Server) searchLocked(ctx context.Context, queries [][]float32, w, k int) ([]servedRow, error) {
	opt := SearchOptions{W: w, K: k, Mode: ClusterMajor}
	kn, effort, adaptOn := s.adaptiveKnobs()
	if adaptOn {
		// The engine forces query-at-a-time under an enabled policy;
		// disabled knob values keep this bit-identical to the fixed path.
		opt.Adaptive = kn.Params()
	}
	s.mu.RLock()
	var gen uint64
	if c := s.cache.Load(); c != nil {
		gen = c.Gen()
	}
	rep, err := s.idx.SearchBatchContext(ctx, queries, opt)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s.recordSearch(len(queries), rep, adaptOn)
	if s.Recall != nil {
		s.Recall.OfferBatch(queries, rep.Results)
	}
	stages := trace.Stages{
		Select: rep.SelectTime, Scan: rep.ScanTime, Rerank: rep.RerankTime, Merge: rep.MergeTime,
		Scanned: rep.ScannedVectors, Clusters: rep.ClustersScanned, Escalated: rep.Escalations,
	}
	rows := make([]servedRow, len(rep.Results))
	for i, r := range rep.Results {
		rows[i] = servedRow{res: r, gen: gen, stages: stages, effort: effort}
	}
	return rows, nil
}

// appendCacheKey builds the result-cache key for one query: the search
// knobs followed by the index's PQ code of the query. Only the software
// backend is cached, so the backend is not part of the key. When
// adaptive serving is active the effort knobs join the key, so a
// controller step makes prior entries unreachable instead of serving
// results computed at a different operating point. (The key is built
// once, at lookup, so a step landing between a miss and its engine run
// can still cache that row under the neighbouring rung — one request of
// staleness, one ladder level apart.)
func (s *Server) appendCacheKey(dst []byte, q []float32, w, k int) []byte {
	dst = binary.AppendUvarint(dst, uint64(w))
	dst = binary.AppendUvarint(dst, uint64(k))
	if kn, _, ok := s.adaptiveKnobs(); ok {
		dst = binary.AppendUvarint(dst, uint64(kn.StopPatience))
		dst = binary.AppendUvarint(dst, uint64(kn.MinClusters))
		dst = binary.AppendUvarint(dst, uint64(kn.EscalateFactor))
		dst = binary.AppendUvarint(dst, uint64(math.Float32bits(kn.Margin)))
	}
	return s.idx.AppendQueryCode(dst, q)
}

// tenantFor resolves the request's QoS tenant from the X-API-Key
// header (or an Authorization: Bearer token); never nil once initQoS
// has run, which Handler does.
func (s *Server) tenantFor(r *http.Request) *qos.Tenant {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
			key = auth[7:]
		}
	}
	return s.Tenants.Resolve(key)
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	s.registerDurable()
	s.registerRecall()
	s.initAdaptive()
	s.initQoS()
	s.front.StartObs(s.obsExtra())
	f := s.front
	mux := http.NewServeMux()
	mux.HandleFunc("/search", f.Instrument("search", http.MethodPost, s.handleSearch))
	mux.HandleFunc("/add", f.Instrument("add", http.MethodPost, s.handleAdd))
	mux.HandleFunc("/stats", f.Instrument("stats", http.MethodGet, s.handleStats))
	mux.HandleFunc("/admin/snapshot", f.Instrument("snapshot", http.MethodPost, s.durable(s.handleSnapshot)))
	mux.HandleFunc("/admin/state", f.Instrument("state", http.MethodGet, s.durable(s.handleAdminState)))
	mux.HandleFunc("/admin/wal/tail", f.Instrument("tail", http.MethodGet, s.durable(s.handleWALTail)))
	// By the time this handler serves traffic, construction — snapshot
	// load and WAL replay included — has finished; a booting process
	// answers 503 through the ReadinessGate wrapper instead.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	f.Mount(mux, "annaserve", !s.DisablePprof, httpx.Debug{})
	return mux
}

// durable answers 503 in place of an /admin handler that needs a Store.
func (s *Server) durable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Store == nil {
			s.front.HTTPError(w, http.StatusServiceUnavailable, "no durable store configured (run annaserve with -data)")
			return
		}
		h(w, r)
	}
}

// obsExtra is annaserve's part of the tsdb + SLO wiring: query and
// in-flight series, and the recall SLO over the shadow estimator.
func (s *Server) obsExtra() httpx.Extra {
	x := httpx.Extra{Series: []tsdb.Series{
		{Name: "queries", Kind: tsdb.CounterKind, Sample: func() float64 { return float64(s.m.queries.Value()) }},
		{Name: "inflight", Kind: tsdb.GaugeKind, Sample: func() float64 { return float64(s.inflight.Load()) }},
	}}
	if s.SLORecall > 0 && s.Recall != nil {
		x.Series = append(x.Series, tsdb.Series{Name: "recall", Kind: tsdb.GaugeKind, Sample: s.Recall.Rolling})
		x.SLOs = func(db *tsdb.DB) []slo.SLO {
			// Zero scrapes are "no shadow samples yet", not zero recall —
			// skip them rather than fire on an idle server.
			return []slo.SLO{{Name: "recall", Objective: 0.99, BadRatio: slo.BadBelow(db, "recall", s.SLORecall, true)}}
		}
	}
	return x
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer" (there is no standard HTTP code for it).
const statusClientClosedRequest = 499

// searchErrStatus maps a batcher error to a response code. Requests are
// validated before they are submitted, so the rest are server faults.
func searchErrStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, qos.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// admit reserves an in-flight slot, or reports overload.
func (s *Server) admit() bool {
	if s.MaxInFlight <= 0 {
		s.inflight.Add(1)
		return true
	}
	if s.inflight.Add(1) > int64(s.MaxInFlight) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

// searchScratch is the pooled per-request working set of handleSearch:
// the request body as read, the decoded request (inner query buffers
// included), the cache keys of the misses (built for the lookup, reused
// for the store), the per-query row table, the response's row headers and
// the encoded reply. Everything that outlives the request copies out of
// these buffers (the batcher and cache copy queries; the reply is
// written before the handler returns), so the whole set recycles
// alloc-free.
type searchScratch struct {
	body   httpx.Body
	req    wire.SearchRequest
	keys   []byte // cache keys of the misses, concatenated
	keyEnd []int  // keyEnd[j]: end of miss j's key in keys
	rows   []servedRow
	miss   [][]float32
	missAt []int
	out    [][]wire.Result
	enc    []byte
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		depth := s.batcher.QueueDepth()
		s.m.rejected.Inc()
		s.m.rejectDepth.Observe(float64(depth))
		retry := qos.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.front.JSON(w, http.StatusTooManyRequests, map[string]any{
			"error":               fmt.Sprintf("server at max in-flight (%d); retry later", s.MaxInFlight),
			"queue_depth":         depth,
			"retry_after_seconds": retry,
		})
		return
	}
	defer s.inflight.Add(-1)

	start := time.Now()
	reqID, parent, tagged := httpx.RequestID(w, r)
	tnt := s.tenantFor(r)

	// The request's exact Content-Type picks the codec, and a 200 is
	// answered in it; the decoder resets the pooled request and reuses its
	// query buffers. Under the recall-SLO controller the default W is a
	// tuned knob; a request that pins its own "w" is always honoured.
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	req := &sc.req
	lim := s.Limits
	if kn := s.knobs.Load(); kn != nil && kn.W > 0 {
		lim.DefaultW = kn.W
	}
	codec, ok := s.front.DecodeSearch(w, r, &sc.body, req, lim)
	if !ok {
		return
	}
	backend := req.Backend
	if backend == "" {
		backend = "software"
	}
	if !tnt.Allow(len(req.Queries)) {
		s.m.reg.Counter("anna_rejected_requests_total",
			"Requests rejected at admission.", metrics.Label{Key: "reason", Value: "quota"}).Inc()
		s.m.reg.Counter("anna_throttled_requests_total",
			"Requests rejected by per-tenant token-bucket quota.",
			metrics.Label{Key: "tenant", Value: tnt.Name}).Inc()
		retry := qos.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.front.JSON(w, http.StatusTooManyRequests, map[string]any{
			"error":               fmt.Sprintf("tenant %q over quota; retry later", tnt.Name),
			"retry_after_seconds": retry,
		})
		return
	}

	// Tracing decision: client-tagged requests are always traced; the
	// rest pay one atomic add to roll the 1-in-N sample. The untraced
	// path allocates nothing here (benchmark-pinned in internal/trace).
	// Slow untraced requests get their trace after the backend switch —
	// only requests that already proved slow pay that cost.
	tr := s.front.StartTrace(reqID, parent, tagged, start)
	// finish fills in a trace's request fields and closes it out with
	// the status written so far: an error's, or 200 just before the
	// reply is encoded.
	finish := func() {
		if tr != nil {
			tr.Queries, tr.W, tr.K, tr.Backend, tr.Tenant = len(req.Queries), req.W, req.K, backend, tnt.Name
			s.front.Record(tr, w)
		}
	}

	// The request context carries client disconnects into the engine;
	// SearchTimeout adds the server-side deadline on top.
	ctx := r.Context()
	if s.SearchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.SearchTimeout)
		defer cancel()
	}

	var (
		resp   wire.SearchReply
		eng    *servedRow    // software: a row of the engine batch the misses rode in
		batch  qos.BatchInfo // … and that batch
		simDur time.Duration // anna: the simulation's wall time
	)
	switch req.Backend {
	case "", "software":
		dim := s.idx.Dim()
		for i, q := range req.Queries {
			if len(q) != dim {
				s.front.HTTPError(w, http.StatusBadRequest, "query %d dim %d, index dim %d", i, len(q), dim)
				finish()
				return
			}
		}
		cache := s.cache.Load()
		nq := len(req.Queries)
		if cap(sc.rows) < nq {
			sc.rows = make([]servedRow, nq)
		}
		rows := sc.rows[:nq]
		// Split the request into cache hits and misses; only the misses
		// reach the engine.
		miss, missAt := sc.miss[:0], sc.missAt[:0]
		keys, keyEnd := sc.keys[:0], sc.keyEnd[:0]
		for i, q := range req.Queries {
			if cache != nil {
				lo := len(keys)
				keys = s.appendCacheKey(keys, q, req.W, req.K)
				if row, ok := cache.Get(keys[lo:], q); ok {
					rows[i] = row
					keys = keys[:lo]
					continue
				}
				keyEnd = append(keyEnd, len(keys))
			}
			miss = append(miss, q)
			missAt = append(missAt, i)
		}
		sc.miss, sc.missAt, sc.keys, sc.keyEnd = miss, missAt, keys, keyEnd
		if len(miss) > 0 {
			// The misses are one batcher member: they run together, in
			// the next engine batch a slot takes, beside whatever else
			// was parked.
			mrows, info, err := s.batcher.SubmitMember(ctx, tnt.Name, tnt.Lane, tnt.Weight, miss, req.W, req.K)
			if err != nil {
				s.front.HTTPError(w, searchErrStatus(err), "search: %v", err)
				finish()
				return
			}
			eng, batch = &mrows[0], info
			for j, at := range missAt {
				rows[at] = mrows[j]
			}
			if cache != nil {
				lo := 0
				for j, at := range missAt {
					// A row is a window into its engine batch's arena;
					// the cache keeps a copy so an entry pins k results,
					// not the whole batch's.
					row := rows[at]
					row.res = slices.Clone(row.res)
					cache.Put(keys[lo:keyEnd[j]], req.Queries[at], row, row.gen)
					lo = keyEnd[j]
				}
			}
		}
		// The rows are shared, not copied, into sc's pooled response
		// headers: a row may sit in the result cache, and the encoder only
		// reads it.
		sc.out = sc.out[:0]
		for _, r := range rows {
			sc.out = append(sc.out, r.res)
		}
		resp.Results = sc.out
	case "anna":
		if s.Accelerator == nil {
			s.front.HTTPError(w, http.StatusBadRequest, "no accelerator configured on this server")
			finish()
			return
		}
		simStart := time.Now()
		s.mu.RLock()
		rep, err := s.Accelerator.Simulate(req.Queries, SimParams{W: req.W, K: req.K})
		s.mu.RUnlock()
		simDur = time.Since(simStart)
		if err != nil {
			s.front.HTTPError(w, http.StatusBadRequest, "simulating: %v", err)
			finish()
			return
		}
		resp.Results = rep.Results
		resp.Cycles = rep.Cycles
		resp.TrafficBytes = rep.TrafficBytes
		resp.ChipEnergyJ = rep.ChipEnergyJ
	default:
		s.front.HTTPError(w, http.StatusBadRequest, "unknown backend %q", req.Backend)
		finish()
		return
	}
	// One trace block for both backends: a live trace, or one started
	// now because the request proved slow, gets what the request got
	// back. A software request's stage spans and work counts are those
	// of the engine batch its misses rode in.
	if tr == nil && s.front.Recorder().IsSlow(time.Since(start)) {
		tr = s.front.StartTrace(reqID, parent, true, start)
	}
	if tr != nil {
		switch {
		case backend == "anna":
			tr.AddSpan("simulate", simDur)
		case eng == nil:
			tr.CacheHit = true
		default:
			tr.Batch = batch.Size
			tr.AddSpan("coalesce", batch.Wait)
			tr.AddStages(eng.stages)
			tr.Effort = eng.effort
		}
	}
	finish()
	var err error
	if sc.enc, err = codec.AppendSearchReply(sc.enc[:0], &resp); err != nil {
		s.Log().Error("encoding response failed", "err", err)
	}
	s.front.WriteReply(w, http.StatusOK, codec.ContentType(), sc.enc)
}

// recordSearch feeds one software-backend batch report into the metrics.
func (s *Server) recordSearch(nq int, rep *BatchReport, adaptOn bool) {
	s.m.queries.Add(uint64(nq))
	s.m.scanned.Add(uint64(rep.ScannedVectors))
	s.m.listBytes.Add(uint64(rep.ListBytesTouched))
	s.m.stage["select"].ObserveDuration(rep.SelectTime)
	s.m.stage["scan"].ObserveDuration(rep.ScanTime)
	if rep.RerankTime > 0 {
		s.m.stage["rerank"].ObserveDuration(rep.RerankTime)
	}
	s.m.stage["merge"].ObserveDuration(rep.MergeTime)
	if adaptOn && s.m.adaptClusters != nil {
		s.m.adaptClusters.Add(uint64(rep.ClustersScanned))
		s.m.adaptEsc.Add(uint64(rep.Escalations))
	}
}

// addScratch is the pooled working set of handleAdd. The index and the
// WAL both copy the vectors before Add returns, so the decoded batch can
// be recycled.
type addScratch struct {
	body httpx.Body
	req  wire.AddRequest
	enc  []byte
}

var addScratchPool = sync.Pool{New: func() any { return new(addScratch) }}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	sc := addScratchPool.Get().(*addScratch)
	defer addScratchPool.Put(sc)
	req := &sc.req
	codec, ok := s.front.DecodeAdd(w, r, &sc.body, req)
	if !ok {
		return
	}
	// Validate before taking the write lock: a bad vector must not stall
	// in-flight searches, and NaN/Inf would silently poison k-means
	// assignment and PQ codes.
	if err := validateAddVectors(req.Vectors, s.idx.Dim()); err != nil {
		s.front.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	// Write-ahead: the batch reaches the log (and, under SyncAlways,
	// the disk) before the in-memory apply, so a crash after the
	// acknowledgment below can always replay it. A failed append leaves
	// the index unmodified — state and log cannot diverge.
	if s.Store != nil {
		start := time.Now()
		err := s.Store.LogAdd(s.idx.NextID(), req.Vectors)
		if s.m.walAppend != nil {
			s.m.walAppend.ObserveDuration(time.Since(start))
		}
		if err != nil {
			s.mu.Unlock()
			s.front.HTTPError(w, http.StatusInternalServerError, "wal append: %v", err)
			return
		}
	}
	first, err := s.idx.Add(req.Vectors)
	if err == nil {
		// Invalidate under the write lock: searches snapshot the cache
		// generation under the read lock, so any search that computed
		// against the pre-add corpus sees a stale generation and its
		// results are dropped instead of cached.
		if c := s.cache.Load(); c != nil {
			c.Invalidate()
		}
	}
	s.mu.Unlock()
	if err != nil {
		s.front.HTTPError(w, http.StatusBadRequest, "add: %v", err)
		return
	}
	s.m.added.Add(uint64(len(req.Vectors)))
	sc.enc = codec.AppendAddReply(sc.enc[:0], wire.AddReply{FirstID: first, Count: len(req.Vectors)})
	s.front.WriteReply(w, http.StatusOK, codec.ContentType(), sc.enc)

	if s.Store != nil && s.SnapshotEvery > 0 &&
		s.addedSince.Add(int64(len(req.Vectors))) >= int64(s.SnapshotEvery) {
		if err := s.snapshotNow(); err != nil {
			s.Log().Error("auto-snapshot failed", "err", err)
		}
	}
}

// snapshotNow checkpoints the index and trims the WAL. The read lock
// excludes concurrent adds (which need the write lock) while letting
// searches proceed against the immutable model.
func (s *Server) snapshotNow() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.Store.Snapshot(); err != nil {
		return err
	}
	s.addedSince.Store(0)
	if s.m.snapDur != nil {
		d, _, _ := s.Store.SnapshotStats()
		s.m.snapDur.ObserveDuration(d)
	}
	return nil
}

type snapshotResponse struct {
	Vectors    int   `json:"vectors"`
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
}

// handleAdd's WAL grows until a snapshot trims it; POST /admin/snapshot
// lets operators (or a cron job) checkpoint under load.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.snapshotNow(); err != nil {
		s.front.HTTPError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	s.mu.RLock()
	n := s.idx.Len()
	s.mu.RUnlock()
	s.front.JSON(w, http.StatusOK, snapshotResponse{
		Vectors:    n,
		WALRecords: int64(s.Store.WALRecords()),
		WALBytes:   s.Store.WALSize(),
	})
}

// Replication wire headers: every /admin/state response is stamped with
// the (epoch, seq) position its bytes represent, so the follower knows
// exactly where to start tailing.
const (
	headerEpoch = "X-Anna-Epoch"
	headerSeq   = "X-Anna-Seq"
)

// handleAdminState serves a full state download for follower bootstrap:
// the index in its canonical serialized form (bit-identical to SaveFile,
// so a follower that loads it and replays the same records converges on
// byte-equal state), stamped with the replication position the bytes
// correspond to. Adds are excluded for the duration of the read lock,
// which makes the (state, epoch, seq) triple consistent.
func (s *Server) handleAdminState(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	epoch, seq := s.Store.TailPosition()
	var buf bytes.Buffer
	err := s.idx.Save(&buf)
	s.mu.RUnlock()
	if err != nil {
		s.front.HTTPError(w, http.StatusInternalServerError, "serializing state: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set(headerEpoch, strconv.FormatInt(epoch, 10))
	w.Header().Set(headerSeq, strconv.FormatUint(seq, 10))
	w.Write(buf.Bytes())
}

// handleWALTail streams WAL records from a sequence number so a
// follower can catch up without a full state download:
//
//	GET /admin/wal/tail?epoch=E&from=N
//
// The response body is wal wire frames (decode with wal.ReplayFrom). A
// stale epoch or an out-of-range from answers 410 Gone — the log was
// trimmed by a snapshot since the follower last read, and it must
// re-bootstrap from /admin/state.
func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		s.front.HTTPError(w, http.StatusBadRequest, "bad epoch: %v", err)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		s.front.HTTPError(w, http.StatusBadRequest, "bad from: %v", err)
		return
	}
	// TailWAL assembles the frames under the store lock and writes them
	// in one call only on success, so an error here still has the
	// response status to itself.
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.Store.TailWAL(w, epoch, from); err != nil {
		if errors.Is(err, ErrTailGone) {
			s.front.HTTPError(w, http.StatusGone, "tail position gone; re-bootstrap from /admin/state")
			return
		}
		s.front.HTTPError(w, http.StatusInternalServerError, "reading tail: %v", err)
		return
	}
}

// validateAddVectors rejects dimension mismatches and non-finite
// components. NaN/Inf cannot arrive through well-formed JSON, but the
// Server API is also used embedded (examples/serving), where they can.
func validateAddVectors(vectors [][]float32, dim int) error {
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("vector %d has dim %d, index dim %d", i, len(v), dim)
		}
		for j, f := range v {
			if f64 := float64(f); math.IsNaN(f64) || math.IsInf(f64, 0) {
				return fmt.Errorf("vector %d component %d is %v (must be finite)", i, j, f)
			}
		}
	}
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	st := s.idx.Stats()
	metric := s.idx.Metric().String()
	dim := s.idx.Dim()
	s.mu.RUnlock()
	resp := map[string]any{
		"vectors":           st.Vectors,
		"clusters":          st.Clusters,
		"dim":               dim,
		"metric":            metric,
		"code_bytes":        st.CodeBytesPerVector,
		"total_code_bytes":  st.TotalCodeBytes,
		"compression_ratio": st.CompressionRatio,
	}
	if c := s.cache.Load(); c != nil {
		hits, misses, evictions, invalidations := c.Stats()
		resp["cache"] = map[string]any{
			"entries":       c.Len(),
			"hits":          hits,
			"misses":        misses,
			"evictions":     evictions,
			"invalidations": invalidations,
		}
	}
	resp["batch_queue_depth"] = s.batcher.QueueDepth()
	if kn, eff, ok := s.adaptiveKnobs(); ok {
		w := kn.W
		if w <= 0 {
			w = s.DefaultW
		}
		ad := map[string]any{
			"w":               w,
			"stop_patience":   kn.StopPatience,
			"min_clusters":    kn.MinClusters,
			"escalate_factor": kn.EscalateFactor,
			"margin":          kn.Margin,
		}
		if s.knobs.Load() != nil {
			ad["effort"] = eff
			ad["recall_target"] = s.Adaptive.RecallTarget
			if s.Recall != nil {
				ad["recall_rolling"] = s.Recall.Rolling()
			}
		}
		resp["adaptive"] = ad
	}
	// Serving latency quantiles, once there is traffic to summarise.
	if h := s.front.Duration("search"); h.Count() > 0 {
		resp["search_latency_seconds"] = map[string]any{
			"count": h.Count(),
			"p50":   h.Quantile(0.50),
			"p95":   h.Quantile(0.95),
			"p99":   h.Quantile(0.99),
		}
	}
	s.front.JSON(w, http.StatusOK, resp)
}
