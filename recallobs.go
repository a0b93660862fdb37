package anna

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"anna/internal/exact"
	"anna/internal/metrics"
	"anna/internal/recall"
	"anna/internal/topk"
)

// Live recall observability: the paper's whole evaluation is the
// recall-vs-throughput trade-off (recall@k as a function of W), but an
// offline benchmark cannot tell an operator whether quality is silently
// degrading as data is ingested or W is tuned down under load. A
// RecallEstimator turns the offline metric into a live signal: it
// shadow-re-ranks a 1-in-N sample of served queries against exhaustive
// exact search (internal/exact) on a bounded async worker — never on
// the query path — and publishes a rolling recall@k gauge plus a recall
// histogram through the server's /metrics endpoint. The rolling
// estimate also feeds the recall SLO when Server.SLORecall is set: the
// embedded tsdb scrapes it as the "recall" series and the burn-rate
// engine alerts on /alerts when it sinks below the floor (obs.go,
// docs/ARCHITECTURE.md §4k).

// RecallEstimatorOptions configure a RecallEstimator.
type RecallEstimatorOptions struct {
	// SampleEvery shadow-checks 1-in-N served queries (default 100).
	// 1 checks every query — only sensible in tests or tiny corpora.
	SampleEvery int
	// K is the recall@K depth (default 10). Served results beyond K are
	// ignored; queries that returned fewer than K are scored against
	// what they returned.
	K int
	// Window is the number of recent samples the rolling gauge averages
	// (default 512).
	Window int
	// QueueDepth bounds the async queue between the serving path and
	// the shadow worker (default 64). When the worker falls behind,
	// further samples are dropped — the serving path never waits.
	QueueDepth int
	// Workers is the exact-search parallelism of each shadow query
	// (default 1, so the shadow load stays off the serving cores).
	Workers int
}

func (o *RecallEstimatorOptions) withDefaults() RecallEstimatorOptions {
	out := RecallEstimatorOptions{SampleEvery: 100, K: 10, Window: 512, QueueDepth: 64, Workers: 1}
	if o == nil {
		return out
	}
	if o.SampleEvery > 0 {
		out.SampleEvery = o.SampleEvery
	}
	if o.K > 0 {
		out.K = o.K
	}
	if o.Window > 0 {
		out.Window = o.Window
	}
	if o.QueueDepth > 0 {
		out.QueueDepth = o.QueueDepth
	}
	if o.Workers > 0 {
		out.Workers = o.Workers
	}
	return out
}

// RecallEstimator estimates online recall@k by shadow-re-ranking
// sampled served queries against exact search over a reference corpus.
//
// The reference corpus is whatever the caller provides — typically the
// vectors the index was built from. Vectors added to the index after
// that are not in the reference, so heavy post-build ingestion skews
// the estimate; re-create the estimator (or accept the skew) when the
// corpus drifts far.
type RecallEstimator struct {
	ex          *exact.Searcher
	k           int
	sampleEvery int64

	n    atomic.Int64 // sampling counter over offered queries
	jobs chan recallJob
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	sampled, dropped, processed atomic.Uint64

	mu     sync.Mutex
	window []float64
	pos    int
	filled int
	sum    float64

	hist *metrics.Histogram // nil until Register

	// testHookBeforeJob, when set (tests only), runs in the worker
	// before each shadow search — used to stall the worker and prove
	// the serving path never blocks on it.
	testHookBeforeJob func()
}

type recallJob struct {
	q   []float32
	got []topk.Result
}

// NewRecallEstimator builds an estimator over the reference corpus
// (all vectors of equal non-zero dimension) under the given metric, and
// starts its shadow worker. Call Close to stop it.
func NewRecallEstimator(corpus [][]float32, metric Metric, opt *RecallEstimatorOptions) (*RecallEstimator, error) {
	m, err := toMatrix(corpus)
	if err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	if len(corpus) < o.K {
		return nil, fmt.Errorf("anna: reference corpus of %d vectors cannot ground recall@%d", len(corpus), o.K)
	}
	e := &RecallEstimator{
		ex:          &exact.Searcher{Metric: metric.internal(), Base: m, Workers: o.Workers},
		k:           o.K,
		sampleEvery: int64(o.SampleEvery),
		jobs:        make(chan recallJob, o.QueueDepth),
		done:        make(chan struct{}),
		window:      make([]float64, o.Window),
	}
	e.wg.Add(1)
	go e.worker()
	return e, nil
}

// K returns the recall depth the estimator scores at.
func (e *RecallEstimator) K() int { return e.k }

// Offer considers one served query for shadow checking. The fast path
// (not selected by the 1-in-N sample) is a single atomic add with no
// allocation; a selected query is copied and enqueued without blocking,
// and dropped if the shadow worker's queue is full.
func (e *RecallEstimator) Offer(q []float32, got []Result) {
	if int64(e.n.Add(1))%e.sampleEvery != 0 {
		return
	}
	// Sampled: copy both inputs — the caller's buffers go back to the
	// client (and its arena may be reused) while the shadow runs.
	job := recallJob{q: slices.Clone(q), got: slices.Clone(got[:min(len(got), e.k)])}
	select {
	case e.jobs <- job:
		e.sampled.Add(1)
	default:
		e.dropped.Add(1)
	}
}

// OfferBatch applies Offer to every query of a served batch.
func (e *RecallEstimator) OfferBatch(queries [][]float32, results [][]Result) {
	for i := range queries {
		if i < len(results) {
			e.Offer(queries[i], results[i])
		}
	}
}

// worker drains the shadow queue: one exact search per sampled query,
// scored with the paper's recall X@Y metric and folded into the rolling
// window and histogram.
func (e *RecallEstimator) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case job := <-e.jobs:
			if e.testHookBeforeJob != nil {
				e.testHookBeforeJob()
			}
			res := e.ex.Search(job.q, e.k)
			truth := make([]int64, len(res))
			for i, t := range res {
				truth[i] = t.ID
			}
			r := recall.XAtY(e.k, e.k, truth, job.got)
			e.observe(r)
			e.processed.Add(1)
		}
	}
}

func (e *RecallEstimator) observe(r float64) {
	e.mu.Lock()
	if e.filled == len(e.window) {
		e.sum -= e.window[e.pos]
	} else {
		e.filled++
	}
	e.window[e.pos] = r
	e.sum += r
	e.pos = (e.pos + 1) % len(e.window)
	h := e.hist
	e.mu.Unlock()
	if h != nil {
		h.Observe(r)
	}
}

// Rolling returns the mean recall@k over the last Window processed
// samples, or NaN-free 0 when nothing has been processed yet.
func (e *RecallEstimator) Rolling() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.filled == 0 {
		return 0
	}
	return e.sum / float64(e.filled)
}

// Stats returns lifetime counters: queries offered, samples enqueued,
// samples dropped (queue full), and samples fully processed.
func (e *RecallEstimator) Stats() (offered int64, sampled, dropped, processed uint64) {
	return e.n.Load(), e.sampled.Load(), e.dropped.Load(), e.processed.Load()
}

// recallBuckets spans the recall range with tight resolution near 1,
// where production systems operate.
func recallBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}
}

// Register publishes the estimator through a metrics registry: the
// rolling recall gauge, the per-sample recall histogram, queue depth,
// and sampled/dropped counters, all labelled with k.
func (e *RecallEstimator) Register(reg *metrics.Registry) {
	kl := metrics.Label{Key: "k", Value: strconv.Itoa(e.k)}
	e.mu.Lock()
	e.hist = reg.Histogram("anna_shadow_recall",
		"Recall@k of individual shadow-checked queries.", recallBuckets(), kl)
	e.mu.Unlock()
	reg.GaugeFunc("anna_shadow_recall_rolling",
		"Rolling mean recall@k over the recent shadow-checked queries.",
		e.Rolling, kl)
	reg.GaugeFunc("anna_shadow_queue_depth",
		"Shadow re-rank jobs waiting for the async worker.",
		func() float64 { return float64(len(e.jobs)) })
	reg.CounterFunc("anna_shadow_sampled_total",
		"Served queries enqueued for shadow recall checking.",
		func() uint64 { return e.sampled.Load() })
	reg.CounterFunc("anna_shadow_dropped_total",
		"Shadow recall samples dropped because the queue was full.",
		func() uint64 { return e.dropped.Load() })
}

// Close stops the shadow worker. Pending queued samples are discarded;
// Offer remains safe to call (samples land in the queue and are never
// processed).
func (e *RecallEstimator) Close() {
	e.once.Do(func() { close(e.done) })
	e.wg.Wait()
}
