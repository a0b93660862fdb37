package ivf

// Fused search path: batched cluster filtering plus the allocation-free
// packed-code scan kernel of internal/pq. Index.Search and the CPU
// engine's workers all run through the one Searcher.Search in this file;
// SearchReference and ScanList in ivf.go remain the spec it is proven
// bit-identical against.

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
// selection scratch, LUT, residual scratch and top-k selector, plus the
// escalation band's candidate list, selector and SQ8 decode buffer — so
// repeated searches allocate nothing when dst has capacity for the
// results. A Searcher is NOT safe for concurrent use; create one per
// goroutine.
type Searcher struct {
	idx     *Index
	cs      *ClusterSelection
	lut     *pq.LUT
	scratch []float32 // residual q-c for L2 LUT fills
	rotBuf  []float32 // OPQ-rotated query (Index.Search's raw-query entry)
	sel     *topk.Selector

	term     adaptive.Termination
	escCands []topk.Result
	escSel   *topk.Selector
	escDec   []float32
}

// NewSearcher returns a reusable fused-search context over x. Buffers are
// sized lazily from the first query's parameters and re-sized only when
// the parameters change.
func (x *Index) NewSearcher() *Searcher { return &Searcher{idx: x} }

// ClampK bounds a requested result count by the number of indexed
// vectors, the way W is bounded by |C|: a selector can never retain more
// candidates than the lists hold, so the clamp changes no result — it
// only keeps an absurd K from sizing an allocation.
func (x *Index) ClampK(k int) int { return min(k, max(x.NTotal, 1)) }

// Scratch sizes the searcher's buffers for a scan of w ≤ |C| clusters and
// lends them out: the cluster-selection scratch, the LUT and the D-long
// residual buffer BuildLUT takes. Search runs on them itself; the
// engine's cluster-major workers, which interleave the stages across
// queries and so cannot call Search, borrow them instead of allocating
// their own per run. They stay valid until the searcher's next use.
func (s *Searcher) Scratch(w int) (*ClusterSelection, *pq.LUT, []float32) {
	if s.cs == nil || s.cs.w != w {
		s.cs = s.idx.NewClusterSelection(w)
	}
	if s.lut == nil {
		s.lut = pq.NewLUT(s.idx.PQ)
	}
	if len(s.scratch) != s.idx.D {
		s.scratch = make([]float32, s.idx.D)
	}
	return s.cs, s.lut, s.scratch
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
	// Clusters counts inverted lists actually scanned — W per query
	// without early termination, possibly fewer with it.
	Clusters int64
	// Escalated counts candidates re-scored through the SQ8 escalation
	// band (zero without escalation); Rerank is the time that took.
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

// Search is the one fused search path: cluster filtering, LUT build +
// list scan, top-k selection, for one query q already in index space
// (Index.Search rotates a raw query; the engine rotates whole batches up
// front via PrepQueries). It appends the top p.K to dst in descending
// similarity order — pass a zero-length slice with capacity K for an
// allocation-free call — and accumulates work counters and per-stage
// wall time into st when st is non-nil. The handful of time.Now() calls
// cost ~100ns against a query's hundreds of microseconds, so the
// instrumented path IS the production path.
//
// p.Adaptive threads two per-query effort policies through the stages:
//
//   - Early termination: clusters are scanned in selection order (most
//     similar centroid first), and the scan stops once the selector's
//     kth score has gone StopPatience consecutive clusters without
//     improving. The stop test rides the Selector.Threshold() value the
//     scan kernel already maintains, so it costs one comparison per
//     cluster.
//   - Precision escalation: the cheap 4-bit/f16 PQ scan keeps an
//     inflated candidate set (K*EscalateFactor), and only the margin
//     band among them — candidates whose approximate score lies within
//     Margin of the kth (see adaptive.Band) — is re-scored in full
//     float32 precision against the SQ8 reconstructions (rescore, which
//     SearchRerank shares). The final top-K comes from the re-scored
//     band. It silently degrades to the plain PQ ordering when the index
//     retains no SQ8 store.
//
// Contract: with the zero policy — and with termination given more
// patience than there are clusters — the results are bit-identical to
// SearchReference (pinned by TestFusedSearchBitExact and
// TestAdaptiveDisabledBitIdentical). With termination enabled, the
// result set is the fixed-W result set minus anything only found in
// clusters past the stop point — on clustered data the kth score
// stabilizes after a few lists, so the loss is bounded by the patience
// knob. With escalation enabled, the returned top-K is the EXACT float32
// ordering over the escalation band, which always contains the
// approximate top-K; PQ ordering errors inside the band are corrected,
// errors that kept a true neighbor out of the wide candidate set
// entirely are not. Deleted IDs can never resurface: escalation
// re-scores only candidates that survived the tombstone-gated list scan.
func (s *Searcher) Search(dst []topk.Result, q []float32, p SearchParams, st *ScanStats) []topk.Result {
	if p.W <= 0 || p.K <= 0 {
		panic(fmt.Sprintf("ivf: invalid search params W=%d K=%d", p.W, p.K))
	}
	var local ScanStats
	if st == nil {
		st = &local
	}
	x := s.idx
	ap := p.Adaptive
	k := x.ClampK(p.K)
	wide := k
	escalate := ap.EscalateFactor > 1 && x.SQ != nil
	if escalate {
		// K*EscalateFactor under the same clamp; bounding the factor
		// first keeps the product from overflowing.
		wide = x.ClampK(k * min(ap.EscalateFactor, x.NTotal/k+1))
	}
	s.Scratch(min(p.W, x.NClusters()))
	s.sel = topk.Reuse(s.sel, wide)

	t0 := time.Now()
	x.SelectClustersBatch(s.cs, q)
	t1 := time.Now()
	st.Select += t1.Sub(t0)

	s.term.Patience = ap.StopPatience
	s.term.MinClusters = ap.MinClusters
	s.term.Reset()
	isIP := x.Metric == pq.InnerProduct
	if isIP {
		// Fill once, rebias per cluster from the phase-1 centroid score.
		x.PQ.FillIP(s.lut, q)
		if p.HWF16 {
			s.lut.RoundF16()
		}
	}
	for i, c := range s.cs.Clusters {
		if isIP {
			x.RebiasLUTFromScore(s.lut, s.cs.Scores[i], p.HWF16)
		} else {
			x.BuildLUT(s.lut, q, c, s.scratch, p.HWF16)
		}
		x.ScanListADC(s.sel, s.lut, c, p.HWF16)
		st.Scanned += int64(x.Lists[c].Len())
		st.ListBytes += x.ListBytes(c)
		st.Clusters++
		if kth, full := s.sel.Threshold(); s.term.Observe(kth, full) {
			break
		}
	}
	t2 := time.Now()
	st.Scan += t2.Sub(t1)

	final := s.sel
	if escalate {
		// Drain the wide selector (descending approximate score), cut
		// the margin band and re-score it. Only re-scored candidates can
		// reach the final top-K, so the returned order is exact over the
		// band.
		s.escCands = s.sel.ResultsAppend(s.escCands[:0])
		band := s.escCands[:adaptive.Band(s.escCands, k, ap.Margin)]
		s.escSel = topk.Reuse(s.escSel, k)
		if len(s.escDec) != x.D {
			s.escDec = make([]float32, x.D)
		}
		x.rescore(s.escSel, q, band, s.escDec)
		st.Escalated += int64(len(band))
		final = s.escSel
		t3 := time.Now()
		st.Rerank += t3.Sub(t2)
		t2 = t3
	}
	res := final.ResultsAppend(dst)
	st.Merge += time.Since(t2)
	return res
}
