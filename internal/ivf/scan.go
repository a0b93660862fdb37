package ivf

// Fused search path: batched cluster filtering plus the allocation-free
// packed-code scan kernel of internal/pq. Search (and the CPU engine's
// workers) run entirely through this file; ScanList in ivf.go remains the
// reference implementation the kernels are proven bit-identical against.

import (
	"fmt"
	"time"

	"anna/internal/adaptive"
	"anna/internal/f16"
	"anna/internal/pq"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// ClusterSelection is the reusable scratch for batched cluster filtering
// (search step 1). One instance serves any number of sequential queries
// without allocating; each engine worker owns one.
type ClusterSelection struct {
	w       int
	scores  []float32 // |C| centroid scores, filled by a batched kernel
	sel     *topk.Selector
	results []topk.Result

	// Clusters holds the selected cluster indices in descending
	// similarity order after SelectClustersBatch; Scores holds the
	// matching centroid scores (q·c for inner product, -||q-c||² for L2).
	Clusters []int
	Scores   []float32
}

// NewClusterSelection returns scratch for selecting the top w of the
// index's clusters (w is clamped to |C|).
func (x *Index) NewClusterSelection(w int) *ClusterSelection {
	if w > x.NClusters() {
		w = x.NClusters()
	}
	if w <= 0 {
		panic(fmt.Sprintf("ivf: NewClusterSelection w=%d", w))
	}
	return &ClusterSelection{
		w:        w,
		scores:   make([]float32, x.NClusters()),
		sel:      topk.NewSelector(w),
		results:  make([]topk.Result, 0, w),
		Clusters: make([]int, 0, w),
		Scores:   make([]float32, 0, w),
	}
}

// SelectClustersBatch performs search step 1 with batched centroid
// scoring: one DotBatch/L2SqBatch sweep over the centroid matrix into the
// reusable scratch instead of |C| per-row calls. The selected clusters
// (and their scores) land in cs.Clusters/cs.Scores, bit-identical to
// SelectClusters' per-row loop.
func (x *Index) SelectClustersBatch(cs *ClusterSelection, q []float32) {
	if x.Metric == pq.InnerProduct {
		vecmath.DotBatch(cs.scores, x.Centroids, q)
	} else {
		vecmath.L2SqBatch(cs.scores, x.Centroids, q)
		for i, s := range cs.scores {
			cs.scores[i] = -s
		}
	}
	cs.sel.Reset()
	for c, s := range cs.scores {
		cs.sel.Push(int64(c), s)
	}
	cs.results = cs.sel.ResultsAppend(cs.results[:0])
	cs.Clusters = cs.Clusters[:0]
	cs.Scores = cs.Scores[:0]
	for _, r := range cs.results {
		cs.Clusters = append(cs.Clusters, int(r.ID))
		cs.Scores = append(cs.Scores, r.Score)
	}
}

// RebiasLUTFromScore is RebiasLUT fed by a centroid score that cluster
// filtering already computed (the score IS q·c for inner-product
// indexes), skipping the D-wide dot product. It panics for L2 indexes.
func (x *Index) RebiasLUTFromScore(l *pq.LUT, score float32, hwF16 bool) {
	if x.Metric != pq.InnerProduct {
		panic("ivf: RebiasLUTFromScore only valid for inner-product indexes")
	}
	l.Bias = score
	if hwF16 {
		l.Bias = f16.Round(l.Bias)
	}
}

// ScanListADC is the fused version of ScanList (search step 3): it walks
// cluster c's packed codes directly — no per-vector Unpack — and offers a
// candidate to sel only when its score reaches the selector's current
// threshold. Tombstones do not change the path: every row goes through
// the same kernel and only threshold survivors are checked against the
// deleted set. Results are bit-identical to ScanList for both metrics,
// both code widths and both rounding modes, with or without tombstones.
func (x *Index) ScanListADC(sel *topk.Selector, l *pq.LUT, c int, hwF16 bool) {
	lst := &x.Lists[c]
	l.ScanADCSkip(sel, lst.IDs, lst.Codes, x.PQ.CodeBytes(), x.PQ.CodeBits() == 4, hwF16, x.deleted)
}

// Searcher bundles every per-thread buffer a fused search needs — cluster
// selection scratch, LUT, residual scratch, rotation scratch and top-k
// selector — so repeated searches allocate nothing beyond the returned
// result slice (and not even that via SearchAppend). A Searcher is NOT
// safe for concurrent use; create one per goroutine.
type Searcher struct {
	idx     *Index
	cs      *ClusterSelection
	lut     *pq.LUT
	scratch []float32 // residual q-c for L2 LUT fills
	rotBuf  []float32 // OPQ-rotated query
	sel     *topk.Selector

	// Adaptive-path scratch (see adaptive.go): early-termination state,
	// the drained wide candidate list, the escalation selector and the
	// SQ8 decode buffer. Unused (nil) on the fixed path.
	term     adaptive.Termination
	escCands []topk.Result
	escSel   *topk.Selector
	escDec   []float32
}

// NewSearcher returns a reusable fused-search context over x. Buffers are
// sized lazily from the first query's parameters and re-sized only when
// the parameters change.
func (x *Index) NewSearcher() *Searcher { return &Searcher{idx: x} }

func (s *Searcher) prepare(p SearchParams) {
	if p.W <= 0 || p.K <= 0 {
		panic(fmt.Sprintf("ivf: invalid search params W=%d K=%d", p.W, p.K))
	}
	w := p.W
	if w > s.idx.NClusters() {
		w = s.idx.NClusters()
	}
	if s.cs == nil || s.cs.w != w {
		s.cs = s.idx.NewClusterSelection(w)
	}
	if s.sel == nil || s.sel.K() != p.K {
		s.sel = topk.NewSelector(p.K)
	} else {
		s.sel.Reset()
	}
	if s.lut == nil {
		s.lut = pq.NewLUT(s.idx.PQ)
	}
	if len(s.scratch) != s.idx.D {
		s.scratch = make([]float32, s.idx.D)
	}
}

// ScanStats accumulates the work and per-stage wall time of fused
// searches run through one Searcher. Scanned counts (query, vector)
// similarity computations (list lengths, tombstones included, matching
// the engine's accounting); ListBytes counts inverted-list code bytes
// read. Select/Scan/Merge split each search into the paper's three
// stages: cluster filtering, LUT build + list scan, and the final top-k
// result merge. The struct is accumulated across calls so a worker can
// report once per batch; zero it to restart.
type ScanStats struct {
	Scanned   int64
	ListBytes int64
	// Clusters counts inverted lists actually scanned — W per query on
	// the fixed path, possibly fewer under adaptive early termination.
	Clusters int64
	// Escalated counts candidates re-scored through the SQ8 escalation
	// band (zero on the fixed path); Rerank is the time that took.
	Escalated int64
	Select    time.Duration
	Scan      time.Duration
	Rerank    time.Duration
	Merge     time.Duration
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.Scanned += o.Scanned
	s.ListBytes += o.ListBytes
	s.Clusters += o.Clusters
	s.Escalated += o.Escalated
	s.Select += o.Select
	s.Scan += o.Scan
	s.Rerank += o.Rerank
	s.Merge += o.Merge
}

// Search runs the fused three-step search for one query, returning the
// top-k in descending similarity order. Results are bit-identical to the
// reference Index.Search.
func (s *Searcher) Search(q []float32, p SearchParams) []topk.Result {
	res, _, _ := s.SearchAppend(nil, q, p)
	return res
}

// SearchAppend is Search appending into dst (pass a zero-length slice
// with capacity K for an allocation-free call). It also reports the scan
// work done: vectors scored and inverted-list code bytes read.
func (s *Searcher) SearchAppend(dst []topk.Result, q []float32, p SearchParams) (res []topk.Result, scanned, listBytes int64) {
	if s.idx.Rot != nil {
		if len(s.rotBuf) != s.idx.D {
			s.rotBuf = make([]float32, s.idx.D)
		}
		s.idx.Rot.Apply(s.rotBuf, q)
		q = s.rotBuf
	}
	return s.searchPrepped(dst, q, p)
}

// SearchPrepped is SearchAppend for a query already in index space (the
// engine rotates whole batches up front via PrepQueries).
func (s *Searcher) SearchPrepped(dst []topk.Result, q []float32, p SearchParams) (res []topk.Result, scanned, listBytes int64) {
	return s.searchPrepped(dst, q, p)
}

func (s *Searcher) searchPrepped(dst []topk.Result, q []float32, p SearchParams) (res []topk.Result, scanned, listBytes int64) {
	var st ScanStats
	res = s.SearchPreppedStats(dst, q, p, &st)
	return res, st.Scanned, st.ListBytes
}

// SearchPreppedStats is SearchPrepped accumulating work counters AND
// per-stage wall time into st (which must be non-nil). The three
// time.Now() calls cost ~100ns against a query's hundreds of
// microseconds, so the instrumented path IS the production path.
func (s *Searcher) SearchPreppedStats(dst []topk.Result, q []float32, p SearchParams, st *ScanStats) []topk.Result {
	s.prepare(p)
	x := s.idx
	t0 := time.Now()
	x.SelectClustersBatch(s.cs, q)
	t1 := time.Now()
	st.Select += t1.Sub(t0)
	if x.Metric == pq.InnerProduct {
		// Fill once, rebias per cluster from the phase-1 centroid score.
		x.PQ.FillIP(s.lut, q)
		if p.HWF16 {
			s.lut.RoundF16()
		}
		for i, c := range s.cs.Clusters {
			x.RebiasLUTFromScore(s.lut, s.cs.Scores[i], p.HWF16)
			x.ScanListADC(s.sel, s.lut, c, p.HWF16)
			st.Scanned += int64(x.Lists[c].Len())
			st.ListBytes += x.ListBytes(c)
		}
	} else {
		for _, c := range s.cs.Clusters {
			x.BuildLUT(s.lut, q, c, s.scratch, p.HWF16)
			x.ScanListADC(s.sel, s.lut, c, p.HWF16)
			st.Scanned += int64(x.Lists[c].Len())
			st.ListBytes += x.ListBytes(c)
		}
	}
	st.Clusters += int64(len(s.cs.Clusters))
	t2 := time.Now()
	st.Scan += t2.Sub(t1)
	res := s.sel.ResultsAppend(dst)
	st.Merge += time.Since(t2)
	return res
}
