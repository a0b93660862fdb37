// Package engine is the software ANNS runtime: a multi-goroutine CPU
// implementation of two-level PQ search over an ivf.Index. It provides
// the two execution disciplines the paper contrasts (Section II-D and
// Figure 5):
//
//   - QueryAtATime: each query independently selects W clusters and scans
//     them, the ScaNN-style discipline with no cross-query list reuse.
//   - ClusterMajor: per-cluster query lists are built first and each
//     visited cluster is scanned once for all its queries — the
//     discipline Faiss16's CPU implementation approximates and ANNA's
//     Section IV optimization implements in hardware.
//
// Both disciplines return identical results; they differ in wall-clock
// behaviour and memory traffic, which the real measured QPS reported by
// Run exposes. This is the repository's genuine CPU baseline alongside
// the calibrated analytic models of internal/cost.
//
// The runtime is a fixed worker pool, not a goroutine per query: each
// worker owns one reusable ivf.Searcher (LUT + cluster-selection scratch
// + top-k selector) for its whole lifetime, pulls work items off an
// atomic counter, and runs the fused scan kernel (ivf.ScanListADC).
// Both disciplines run on the one worker loop (Engine.forEach); worker
// searchers and cluster-major's per-query selectors and LUTs are pooled
// on the Engine across Run calls, so the steady state allocates only
// the per-Run report, result arena and per-query result headers.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/adaptive"
	"anna/internal/ivf"
	"anna/internal/pq"
	"anna/internal/simd"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Mode selects the execution discipline.
type Mode int

const (
	// QueryAtATime processes each query independently (no list reuse).
	QueryAtATime Mode = iota
	// ClusterMajor groups queries by visited cluster and scans each
	// cluster once for all of them.
	ClusterMajor
)

func (m Mode) String() string {
	switch m {
	case QueryAtATime:
		return "query-at-a-time"
	case ClusterMajor:
		return "cluster-major"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure a run.
type Options struct {
	Mode    Mode
	W       int
	K       int
	Workers int // default GOMAXPROCS
	// HWF16 matches the accelerator's half-precision LUT/score rounding,
	// for bit-exact comparisons against the simulator.
	HWF16 bool
	// Adaptive enables per-query effort policies (early termination of
	// the cluster scan and/or SQ8 precision escalation — see
	// internal/adaptive). When enabled the run always uses the
	// query-at-a-time discipline regardless of Mode: termination is a
	// per-query sequential decision over that query's clusters, which
	// cluster-major's cross-query scan order cannot honour.
	Adaptive adaptive.Params
}

// Report is the outcome of a run.
type Report struct {
	Results [][]topk.Result
	// Elapsed is the wall-clock duration of the search phase.
	Elapsed time.Duration
	// QPS is Queries/Elapsed.
	QPS float64
	// ScannedVectors counts (query, vector) similarity computations.
	ScannedVectors int64
	// ListBytesTouched is the code bytes read, counting a list once per
	// visiting query in QueryAtATime and once per visited cluster in
	// ClusterMajor (the traffic difference of Figure 5).
	ListBytesTouched int64
	// SelectTime / ScanTime / MergeTime split the run into the paper's
	// stages — cluster filtering, LUT build + list scan, top-k result
	// merge. They are summed across workers (CPU time, not wall clock),
	// so their total can exceed Elapsed on multi-worker runs.
	SelectTime, ScanTime, MergeTime time.Duration
	// SIMD names the kernel dispatch the run used ("avx2" or "scalar",
	// see internal/simd) — fixed per process, recorded so benchmark
	// reports and A/B comparisons can't silently mix kernel classes.
	SIMD string
	// ClustersScanned counts inverted lists actually scanned across the
	// batch: n*W on the fixed path (and in cluster-major, where it
	// counts (query, cluster) visits), possibly fewer under adaptive
	// early termination.
	ClustersScanned int64
	// Escalations counts candidates re-scored through the SQ8
	// escalation band; RerankTime is the worker time that took (zero
	// unless Options.Adaptive enabled escalation).
	Escalations int64
	RerankTime  time.Duration
}

// pool is a free list of per-run objects shared by concurrent Runs.
type pool[T any] struct {
	mu   sync.Mutex
	free []T
}

// grab checks n objects out, creating with mk any the pool cannot supply.
func (p *pool[T]) grab(n int, mk func() T) []T {
	out := make([]T, 0, n)
	p.mu.Lock()
	keep := len(p.free) - min(n, len(p.free))
	out = append(out, p.free[keep:]...)
	p.free = p.free[:keep]
	p.mu.Unlock()
	for len(out) < n {
		out = append(out, mk())
	}
	return out
}

func (p *pool[T]) release(items []T) {
	p.mu.Lock()
	p.free = append(p.free, items...)
	p.mu.Unlock()
}

// Engine wraps an index for repeated searches. It pools per-worker
// search state across Run calls; an Engine is safe for concurrent Runs.
type Engine struct {
	idx *ivf.Index

	// Worker-pool saturation gauges, exposed live for the serving
	// layer's /metrics endpoint. queued counts work items (queries in
	// query-at-a-time and cluster-major phase 1, visited clusters in
	// phase 2) admitted to the pool but not yet picked up by a worker;
	// inflight counts items a worker is executing right now. Both drop
	// back to zero between runs, including after a cancelled run.
	queued   atomic.Int64
	inflight atomic.Int64

	searchers pool[*ivf.Searcher]
	selectors pool[*topk.Selector] // cluster-major per-query selectors
	luts      pool[*pq.LUT]        // cluster-major per-query IP tables
}

// QueueDepth returns the number of work items admitted to the worker
// pool but not yet started (see Engine.queued).
func (e *Engine) QueueDepth() int64 { return e.queued.Load() }

// InFlight returns the number of work items workers are executing now.
func (e *Engine) InFlight() int64 { return e.inflight.Load() }

// New returns an engine over idx.
func New(idx *ivf.Index) *Engine { return &Engine{idx: idx} }

// Run executes the batch and returns results plus measured performance.
// It never fails; deadline-aware callers use RunContext.
func (e *Engine) Run(queries *vecmath.Matrix, opt Options) *Report {
	rep, _ := e.RunContext(context.Background(), queries, opt)
	return rep
}

// RunContext is Run with cancellation: workers re-check ctx between work
// items (per query, and per visited cluster in cluster-major phase 2),
// so a cancelled batch stops within one item's latency per worker. On
// cancellation it returns ctx's error and a nil report; pool gauges are
// unwound so QueueDepth/InFlight read zero afterwards.
func (e *Engine) RunContext(ctx context.Context, queries *vecmath.Matrix, opt Options) (*Report, error) {
	if opt.W <= 0 || opt.K <= 0 {
		panic(fmt.Sprintf("engine: invalid options W=%d K=%d", opt.W, opt.K))
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queries = e.idx.PrepQueries(queries) // OPQ rotation, when trained with one
	// K is clamped to the vector count as W is to |C|: no result changes,
	// and the per-run arenas stay bounded by the index, not the request.
	p := ivf.SearchParams{W: min(opt.W, e.idx.NClusters()), K: e.idx.ClampK(opt.K), HWF16: opt.HWF16, Adaptive: opt.Adaptive}
	mode := opt.Mode
	if opt.Adaptive.Enabled() {
		// Per-query early termination is sequential in one query's
		// cluster order; cluster-major interleaves clusters across
		// queries, so adaptive runs force the query-at-a-time discipline.
		mode = QueryAtATime
	}
	var results [][]topk.Result
	var st ivf.ScanStats
	var err error
	start := time.Now()
	switch mode {
	case QueryAtATime:
		results, st, err = e.runQueryMajor(ctx, queries, p, workers)
	case ClusterMajor:
		results, st, err = e.runClusterMajor(ctx, queries, p, workers)
	default:
		panic(fmt.Sprintf("engine: unknown mode %d", opt.Mode))
	}
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Results:          results,
		Elapsed:          time.Since(start),
		ScannedVectors:   st.Scanned,
		ListBytesTouched: st.ListBytes,
		SelectTime:       st.Select,
		ScanTime:         st.Scan,
		MergeTime:        st.Merge,
		SIMD:             simd.Dispatch(),
		ClustersScanned:  st.Clusters,
		Escalations:      st.Escalated,
		RerankTime:       st.Rerank,
	}
	if rep.Elapsed > 0 {
		rep.QPS = float64(queries.Rows) / rep.Elapsed.Seconds()
	}
	return rep, nil
}

// forEach is the engine's one worker loop. It runs fn(s, i, st) for
// every item i in [0, items) on min(workers, items) goroutines, each
// holding a pooled Searcher s for the whole run and pulling items off an
// atomic counter; st is the worker's private accumulator. It keeps the
// queued/inflight gauges, re-checks ctx between items, and on a
// cancelled run unwinds the queue claims of items never started. It
// returns the workers' accumulators summed, their wall time summed
// (CPU time, not wall clock), and ctx's error.
func (e *Engine) forEach(ctx context.Context, items, workers int, fn func(s *ivf.Searcher, item int, st *ivf.ScanStats)) (ivf.ScanStats, time.Duration, error) {
	searchers := e.searchers.grab(min(workers, items), e.idx.NewSearcher)
	defer e.searchers.release(searchers)

	var next atomic.Int64
	var mu sync.Mutex // guards total, busy, started
	var total ivf.ScanStats
	var busy time.Duration
	var started int64
	e.queued.Add(int64(items))
	var wg sync.WaitGroup
	for _, s := range searchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wstart := time.Now()
			var st ivf.ScanStats
			var done int64
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= items {
					break
				}
				e.queued.Add(-1)
				e.inflight.Add(1)
				fn(s, i, &st)
				e.inflight.Add(-1)
				done++
			}
			mu.Lock()
			total.Add(st)
			busy += time.Since(wstart)
			started += done
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Release the queue claims of items a cancelled run never started.
	e.queued.Add(started - int64(items))
	return total, busy, ctx.Err()
}

// runQueryMajor searches each query independently; p is already clamped.
func (e *Engine) runQueryMajor(ctx context.Context, queries *vecmath.Matrix, p ivf.SearchParams, workers int) ([][]topk.Result, ivf.ScanStats, error) {
	n, k := queries.Rows, p.K
	results := make([][]topk.Result, n)
	// One arena backs every query's results; slots are disjoint, so
	// workers write without coordination. The arena is handed to the
	// caller inside the report and therefore NOT pooled.
	arena := make([]topk.Result, n*k)
	st, _, err := e.forEach(ctx, n, workers, func(s *ivf.Searcher, qi int, st *ivf.ScanStats) {
		results[qi] = s.Search(arena[qi*k:qi*k:(qi+1)*k], queries.Row(qi), p, st)
	})
	return results, st, err
}

// scoredCluster is one cluster a query selected in phase 1, with its
// centroid score (q·c for inner product) retained for phase-2 reuse.
type scoredCluster struct {
	c     int
	score float32
}

// clusterVisit is one (query, cluster) pairing of cluster-major phase 2,
// carrying the phase-1 centroid score so inner-product scans can rebias
// their per-query LUT without recomputing q·c.
type clusterVisit struct {
	qi    int
	score float32
}

// runClusterMajor groups queries by visited cluster and scans each
// cluster once for all of them; p is already clamped.
func (e *Engine) runClusterMajor(ctx context.Context, queries *vecmath.Matrix, p ivf.SearchParams, workers int) ([][]topk.Result, ivf.ScanStats, error) {
	x := e.idx
	n, w, k := queries.Rows, p.W, p.K
	isIP := x.Metric == pq.InnerProduct

	// Phase 1: cluster filtering for every query. Selected clusters AND
	// their centroid scores are retained; for inner product each query's
	// LUT is filled exactly once here and only rebias'd per cluster in
	// phase 2 (the Section II-C reuse).
	perQuery := make([][]scoredCluster, n)
	selArena := make([]scoredCluster, n*w)
	var luts []*pq.LUT
	if isIP {
		luts = e.luts.grab(n, func() *pq.LUT { return pq.NewLUT(x.PQ) })
		defer e.luts.release(luts)
	}
	st, busy, err := e.forEach(ctx, n, workers, func(s *ivf.Searcher, qi int, _ *ivf.ScanStats) {
		cs, _, _ := s.Scratch(w)
		q := queries.Row(qi)
		x.SelectClustersBatch(cs, q)
		sel := selArena[qi*w : qi*w : (qi+1)*w]
		for i, c := range cs.Clusters {
			sel = append(sel, scoredCluster{c: c, score: cs.Scores[i]})
		}
		perQuery[qi] = sel
		if isIP {
			x.PQ.FillIP(luts[qi], q)
			if p.HWF16 {
				luts[qi].RoundF16()
			}
		}
	})
	if err != nil {
		return nil, st, err
	}
	st.Select = busy

	// Invert to per-cluster visit lists (qi + phase-1 score), carved out
	// of one counted arena so the inversion never reallocates.
	nc := x.NClusters()
	counts := make([]int, nc)
	total := 0
	for _, sel := range perQuery {
		for _, sc := range sel {
			counts[sc.c]++
			total++
		}
	}
	visitBacking := make([]clusterVisit, total)
	clusterVisits := make([][]clusterVisit, nc)
	nonEmpty := make([]int, 0, nc)
	off := 0
	for c, cnt := range counts {
		if cnt == 0 {
			continue
		}
		clusterVisits[c] = visitBacking[off : off : off+cnt]
		off += cnt
		nonEmpty = append(nonEmpty, c)
	}
	for qi, sel := range perQuery {
		for _, sc := range sel {
			clusterVisits[sc.c] = append(clusterVisits[sc.c], clusterVisit{qi: qi, score: sc.score})
		}
	}

	// Per-query selectors (pooled across Runs; ones pooled at another k
	// are replaced), each guarded by its own mutex: different clusters
	// touching the same query serialise only on that query.
	sels := e.selectors.grab(n, func() *topk.Selector { return topk.NewSelector(k) })
	defer e.selectors.release(sels)
	for i, sel := range sels {
		sels[i] = topk.Reuse(sel, k)
	}
	locks := make([]sync.Mutex, n)

	// Phase 2: scan each visited cluster once, for all its queries. L2
	// tables are cluster-dependent, so each worker rebuilds its
	// searcher's LUT per visit; IP visits rebias the query's own table.
	scan, busy, err := e.forEach(ctx, len(nonEmpty), workers, func(s *ivf.Searcher, ci int, st *ivf.ScanStats) {
		_, lut, scratch := s.Scratch(w)
		c := nonEmpty[ci]
		for _, v := range clusterVisits[c] {
			if isIP {
				l := luts[v.qi]
				locks[v.qi].Lock()
				x.RebiasLUTFromScore(l, v.score, p.HWF16)
				x.ScanListADC(sels[v.qi], l, c, p.HWF16)
				locks[v.qi].Unlock()
			} else {
				x.BuildLUT(lut, queries.Row(v.qi), c, scratch, p.HWF16)
				locks[v.qi].Lock()
				x.ScanListADC(sels[v.qi], lut, c, p.HWF16)
				locks[v.qi].Unlock()
			}
			st.Scanned += int64(x.Lists[c].Len())
		}
		st.ListBytes += x.ListBytes(c) // list touched once, reused by all queries
	})
	if err != nil {
		return nil, st, err
	}
	st.Add(scan)
	st.Scan = busy
	st.Clusters = int64(total) // (query, cluster) visits; W per query

	mergeStart := time.Now()
	results := make([][]topk.Result, n)
	arena := make([]topk.Result, 0, n*k)
	for qi := range sels {
		lo := len(arena)
		arena = sels[qi].ResultsAppend(arena)
		results[qi] = arena[lo:len(arena):len(arena)]
	}
	st.Merge = time.Since(mergeStart)
	return results, st, nil
}
