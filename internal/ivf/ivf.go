// Package ivf implements the two-level product-quantization ANNS index of
// Section II-C: database vectors are grouped into |C| clusters by k-means,
// each vector is encoded as the PQ code of its residual against the
// cluster centroid, and codes are stored in per-cluster inverted lists
// together with the centroid.
//
// The same trained index feeds every execution backend in this repository:
// the software reference search in this package, the multi-threaded CPU
// engine (internal/engine), and the simulated ANNA accelerator
// (internal/anna) — mirroring how one trained Faiss/ScaNN model is shared
// by the CPU, GPU and ANNA configurations in the paper's evaluation.
package ivf

import (
	"fmt"
	"sync"

	"anna/internal/adaptive"
	"anna/internal/f16"
	"anna/internal/kmeans"
	"anna/internal/par"
	"anna/internal/pq"
	"anna/internal/rotation"
	"anna/internal/sq"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Config controls index construction.
type Config struct {
	// NClusters is |C|, the number of coarse clusters. The paper uses
	// 10000 for billion-scale and 250 for million-scale datasets.
	NClusters int
	// M and Ks configure the product quantizer (Section II-B).
	M, Ks int
	// CoarseIters / PQIters are the k-means iteration budgets
	// (defaults 20 / 20).
	CoarseIters, PQIters int
	// MaxTrain caps the vectors used for coarse and PQ training
	// (0 = all).
	MaxTrain int
	Seed     int64
	Workers  int
	// F16 rounds centroids and codebooks through half precision after
	// training, matching what ANNA holds in its SRAM. Leave false for a
	// pure-software float32 index.
	F16 bool
	// Rotate applies a random orthonormal rotation to the data before
	// quantization (OPQ-style preconditioning, Section VI: ANNA supports
	// OPQ unchanged). Queries are rotated automatically at search time.
	Rotate bool
	// AnisotropicEta enables ScaNN-style score-aware encoding when > 1:
	// codewords are chosen to penalise quantization error parallel to
	// the datapoint by this factor (see pq.EncodeAnisotropic). The
	// search computation is unchanged — only the stored identifiers
	// differ — which is exactly why ANNA runs ScaNN models natively.
	AnisotropicEta float32
	// Rerank retains an 8-bit scalar-quantized copy of every vector
	// (D bytes each) so SearchRerank can refine PQ candidate order —
	// "re-rank with source coding".
	Rerank bool
}

// List is one inverted list: the vectors of a single cluster.
type List struct {
	IDs   []int64 // database vector IDs
	Codes []byte  // packed PQ codes, CodeBytes() per vector
}

// Len returns the number of vectors in the list.
func (l *List) Len() int { return len(l.IDs) }

// Index is a trained two-level PQ index.
type Index struct {
	Metric    pq.Metric
	D         int
	Centroids *vecmath.Matrix // |C| x D
	PQ        *pq.Quantizer
	Lists     []List
	// NTotal is the number of indexed vectors.
	NTotal int
	// Rot is the optional OPQ-style rotation applied to data at build
	// time and to queries at search time (nil when unused).
	Rot *rotation.Matrix
	// AnisotropicEta records the encoding objective so Add() encodes new
	// vectors consistently (0 or 1 = plain L2 assignment).
	AnisotropicEta float32
	// SQ holds optional 8-bit reconstructions for SearchRerank (nil when
	// the index was built without Config.Rerank).
	SQ *sq.Store
	// deleted holds tombstoned IDs (see Delete/Compact); nil when none.
	deleted map[int64]struct{}
	// nextID is the ID the next Add assigns (always maxID+1, which can
	// exceed NTotal after Compact leaves ID gaps).
	nextID int64
	// searcherPool recycles fused-search contexts for the single-query
	// Search API (engines hold their own Searchers instead). Held by
	// pointer so Index values stay copyable; nil (zero-value Index)
	// simply disables pooling.
	searcherPool *sync.Pool
	// IngestWorkers bounds the parallelism of Add's batched
	// assign+encode pipeline; 0 means GOMAXPROCS. The ingested lists are
	// byte-identical for any value. Set it between (not during) Adds.
	IngestWorkers int
	// assigner caches the batched nearest-centroid structure for Add;
	// lazily built on first use (centroids never move after training or
	// loading). nil on a fresh or loaded index.
	assigner *kmeans.Assigner
}

// Build trains and populates an index over the rows of data.
func Build(data *vecmath.Matrix, metric pq.Metric, cfg Config) *Index {
	if cfg.NClusters <= 0 {
		panic("ivf: NClusters must be positive")
	}
	if cfg.CoarseIters == 0 {
		cfg.CoarseIters = 20
	}
	if cfg.PQIters == 0 {
		cfg.PQIters = 20
	}

	var rot *rotation.Matrix
	if cfg.Rotate {
		rot = rotation.NewRandom(data.Cols, cfg.Seed+2)
		data = rot.ApplyAll(data)
	}

	coarse := kmeans.Train(data, kmeans.Config{
		K: cfg.NClusters, MaxIters: cfg.CoarseIters, Seed: cfg.Seed,
		Workers: cfg.Workers, MaxSamples: cfg.MaxTrain,
	})
	centroids := coarse.Centroids
	if cfg.F16 {
		f16.RoundSlice(centroids.Data, centroids.Data)
	}

	// Residuals for PQ training (optionally subsampled by kmeans itself).
	resid := vecmath.NewMatrix(data.Rows, data.Cols)
	par.Run(data.Rows, 1024, cfg.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vecmath.Sub(resid.Row(i), data.Row(i), centroids.Row(int(coarse.Assign[i])))
		}
	})
	quant := pq.Train(resid, pq.Config{
		M: cfg.M, Ks: cfg.Ks, Iters: cfg.PQIters, Seed: cfg.Seed + 1,
		Workers: cfg.Workers, MaxSamples: cfg.MaxTrain,
	})
	if cfg.F16 {
		f16.RoundSlice(quant.Codebooks.Data, quant.Codebooks.Data)
	}

	idx := &Index{
		Metric:         metric,
		D:              data.Cols,
		Centroids:      centroids,
		PQ:             quant,
		Lists:          make([]List, cfg.NClusters),
		NTotal:         data.Rows,
		Rot:            rot,
		AnisotropicEta: cfg.AnisotropicEta,
		searcherPool:   &sync.Pool{},
	}
	// Encode every residual in parallel into a flat row-indexed staging
	// buffer (disjoint per-row regions, so no worker coordination), then
	// fill the lists serially in ascending row order — list contents are
	// byte-identical for any Workers value.
	cb := quant.CodeBytes()
	allCodes := make([]byte, data.Rows*cb)
	pq.EncodeBatchAnisotropic(allCodes, quant, resid, data, cfg.AnisotropicEta, cfg.Workers)
	listLen := make([]int, cfg.NClusters)
	for _, c := range coarse.Assign {
		listLen[c]++
	}
	for c, n := range listLen {
		if n > 0 {
			idx.Lists[c].IDs = make([]int64, 0, n)
			idx.Lists[c].Codes = make([]byte, 0, n*cb)
		}
	}
	for i := 0; i < data.Rows; i++ {
		lst := &idx.Lists[coarse.Assign[i]]
		lst.IDs = append(lst.IDs, int64(i))
		lst.Codes = append(lst.Codes, allCodes[i*cb:(i+1)*cb]...)
	}
	if cfg.Rerank {
		idx.enableRerank(data) // index-space (post-rotation) copies
	}
	idx.nextID = int64(data.Rows)
	return idx
}

// NClusters returns |C|.
func (x *Index) NClusters() int { return x.Centroids.Rows }

// NextID returns the ID the next Add will assign to its first vector.
// The durability layer records it in WAL entries so replay can detect
// records already covered by a snapshot.
func (x *Index) NextID() int64 { return x.nextID }

// PrepQuery returns the query in index space: a rotated copy when the
// index was built with Rotate, otherwise q itself.
func (x *Index) PrepQuery(q []float32) []float32 {
	if x.Rot == nil {
		return q
	}
	out := make([]float32, len(q))
	x.Rot.Apply(out, q)
	return out
}

// PrepQueries returns the query batch in index space (see PrepQuery).
// Execution engines call it once at entry so every later per-query use
// sees index-space vectors.
func (x *Index) PrepQueries(qm *vecmath.Matrix) *vecmath.Matrix {
	if x.Rot == nil {
		return qm
	}
	return x.Rot.ApplyAll(qm)
}

// Add encodes and appends new vectors to the index using the existing
// trained model (centroids, codebooks, rotation), returning the ID of
// the first added vector. IDs continue from the current NTotal. The
// batch is assigned and encoded in parallel (bounded by IngestWorkers)
// into per-row staging regions, then merged into the lists in ascending
// row order — the resulting lists are byte-identical for any worker
// count. It panics on dimension mismatch.
func (x *Index) Add(data *vecmath.Matrix) int64 {
	if data.Cols != x.D {
		panic(fmt.Sprintf("ivf: Add dimension %d, index %d", data.Cols, x.D))
	}
	if x.Rot != nil {
		data = x.Rot.ApplyAll(data)
	}
	first := x.nextID
	n := data.Rows
	if x.assigner == nil {
		x.assigner = kmeans.NewAssigner(x.Centroids)
	}
	assign := make([]int32, n)
	x.assigner.AssignBatch(assign, data, x.IngestWorkers)
	resid := vecmath.NewMatrix(n, x.D)
	par.Run(n, 1024, x.IngestWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vecmath.Sub(resid.Row(i), data.Row(i), x.Centroids.Row(int(assign[i])))
		}
	})
	cb := x.PQ.CodeBytes()
	codes := make([]byte, n*cb)
	pq.EncodeBatchAnisotropic(codes, x.PQ, resid, data, x.AnisotropicEta, x.IngestWorkers)
	for i := 0; i < n; i++ {
		lst := &x.Lists[assign[i]]
		lst.IDs = append(lst.IDs, first+int64(i))
		lst.Codes = append(lst.Codes, codes[i*cb:(i+1)*cb]...)
	}
	x.appendRerank(data, first)
	x.NTotal += n
	x.nextID += int64(n)
	return first
}

// CentroidScore returns the similarity of q to centroid c under the
// index metric (larger = more similar).
func (x *Index) CentroidScore(q []float32, c int) float32 {
	if x.Metric == pq.InnerProduct {
		return vecmath.Dot(q, x.Centroids.Row(c))
	}
	return -vecmath.L2Sq(q, x.Centroids.Row(c))
}

// SelectClusters performs search step 1 (cluster filtering): it returns
// the indices of the W centroids most similar to q, in descending
// similarity order. It allocates fresh scratch per call; hot paths reuse
// a ClusterSelection via SelectClustersBatch instead.
func (x *Index) SelectClusters(q []float32, w int) []int {
	cs := x.NewClusterSelection(w)
	x.SelectClustersBatch(cs, q)
	out := make([]int, len(cs.Clusters))
	copy(out, cs.Clusters)
	return out
}

// BuildLUT performs search step 2 (lookup table construction) for query q
// and cluster c. For inner product the table contents are
// cluster-independent and Bias carries the q·c term; for L2 the table is
// built from the residual q-c (Section II-C), which the fill kernel
// subtracts on the fly — scratch, if of length D, only saves the
// per-entry path an allocation. When hwF16 is true the table is rounded
// through half precision as ANNA's 2-byte LUT SRAM would store it.
func (x *Index) BuildLUT(l *pq.LUT, q []float32, c int, scratch []float32, hwF16 bool) {
	if x.Metric == pq.InnerProduct {
		x.PQ.FillIP(l, q)
		l.Bias = vecmath.Dot(q, x.Centroids.Row(c))
	} else {
		x.PQ.FillL2Residual(l, q, x.Centroids.Row(c), scratch)
	}
	if hwF16 {
		l.RoundF16()
	}
}

// RebiasLUT updates an inner-product LUT for a new cluster without
// refilling the tables (the reuse the paper highlights for IP search).
// It panics for L2 indexes, whose tables are cluster-dependent.
func (x *Index) RebiasLUT(l *pq.LUT, q []float32, c int, hwF16 bool) {
	if x.Metric != pq.InnerProduct {
		panic("ivf: RebiasLUT only valid for inner-product indexes")
	}
	l.Bias = vecmath.Dot(q, x.Centroids.Row(c))
	if hwF16 {
		l.Bias = f16.Round(l.Bias)
	}
}

// ScanList performs search step 3 (similarity computation) over cluster
// c's list, offering every vector to sel. codeBuf must have length M (it
// is the unpacker scratch). When hwF16 is true the final score is rounded
// to half precision as the hardware adder-tree output register would.
//
// This is the REFERENCE scan: one Unpack, one ADC and one Push per
// vector. The production path is ScanListADC (scan.go), which is proven
// bit-identical against this implementation by the tests.
func (x *Index) ScanList(sel *topk.Selector, l *pq.LUT, c int, codeBuf []byte, hwF16 bool) {
	lst := &x.Lists[c]
	cb := x.PQ.CodeBytes()
	filtered := len(x.deleted) > 0
	for i := 0; i < lst.Len(); i++ {
		if filtered {
			if _, dead := x.deleted[lst.IDs[i]]; dead {
				continue
			}
		}
		x.PQ.Unpack(codeBuf, lst.Codes[i*cb:])
		var s float32
		if hwF16 {
			s = l.ADCf16(codeBuf)
		} else {
			s = l.ADC(codeBuf)
		}
		sel.Push(lst.IDs[i], s)
	}
}

// SearchParams control a query.
type SearchParams struct {
	W int // clusters to inspect (nprobe)
	K int // results to return
	// HWF16 rounds LUT entries and scores through half precision,
	// matching the accelerator datapath bit-for-bit.
	HWF16 bool
	// Adaptive is the per-query effort policy (early termination,
	// precision escalation — see Searcher.Search). The zero value scans
	// all W clusters and returns the plain PQ ordering; SearchReference
	// ignores it.
	Adaptive adaptive.Params
}

// Search runs the full three-step search for a single query and returns
// the top-k results in descending similarity order, via the fused scan
// path (see scan.go). Callers issuing many queries should hold a
// Searcher to reuse its buffers across calls.
func (x *Index) Search(q []float32, p SearchParams) []topk.Result {
	var s *Searcher
	if x.searcherPool != nil {
		s, _ = x.searcherPool.Get().(*Searcher)
	}
	if s == nil || s.idx != x {
		// No pooled context (or one from a copied Index) — start fresh.
		s = x.NewSearcher()
	}
	if x.Rot != nil {
		// Rotate into the pooled searcher's buffer, not a fresh slice.
		if len(s.rotBuf) != x.D {
			s.rotBuf = make([]float32, x.D)
		}
		x.Rot.Apply(s.rotBuf, q)
		q = s.rotBuf
	}
	res := s.Search(nil, q, p, nil)
	if x.searcherPool != nil {
		x.searcherPool.Put(s)
	}
	return res
}

// SearchReference is the unfused three-step search — per-row cluster
// scoring, per-vector Unpack+ADC, unconditional selector pushes. It is
// retained as the spec the fused path is tested bit-identical against.
func (x *Index) SearchReference(q []float32, p SearchParams) []topk.Result {
	if p.W <= 0 || p.K <= 0 {
		panic(fmt.Sprintf("ivf: invalid search params W=%d K=%d", p.W, p.K))
	}
	q = x.PrepQuery(q)
	if p.W > x.NClusters() {
		p.W = x.NClusters()
	}
	sel := topk.NewSelector(p.W)
	for c := 0; c < x.NClusters(); c++ {
		sel.Push(int64(c), x.CentroidScore(q, c))
	}
	clusters := make([]int, 0, p.W)
	for _, r := range sel.Results() {
		clusters = append(clusters, int(r.ID))
	}
	out := topk.NewSelector(p.K)
	lut := pq.NewLUT(x.PQ)
	scratch := make([]float32, x.D)
	codeBuf := make([]byte, x.PQ.M)

	if x.Metric == pq.InnerProduct {
		// Fill once, rebias per cluster (Section II-C reuse).
		x.PQ.FillIP(lut, q)
		if p.HWF16 {
			lut.RoundF16()
		}
		for _, c := range clusters {
			x.RebiasLUT(lut, q, c, p.HWF16)
			x.ScanList(out, lut, c, codeBuf, p.HWF16)
		}
	} else {
		for _, c := range clusters {
			x.BuildLUT(lut, q, c, scratch, p.HWF16)
			x.ScanList(out, lut, c, codeBuf, p.HWF16)
		}
	}
	return out.Results()
}

// ListBytes returns the packed code bytes of cluster c's list, the
// quantity the EFM fetches from main memory.
func (x *Index) ListBytes(c int) int64 {
	return int64(len(x.Lists[c].Codes))
}

// Stats summarises index shape for harness reports.
type Stats struct {
	NTotal, NClusters int
	MinList, MaxList  int
	MeanList          float64
	CodeBytes         int   // per vector
	TotalCodeBytes    int64 // whole database
	CentroidBytes     int64 // 2 bytes/element
	CodebookBytes     int64
	CompressionRatio  float64 // raw f16 size / code size
}

// ComputeStats returns index statistics.
func (x *Index) ComputeStats() Stats {
	st := Stats{
		NTotal:    x.NTotal,
		NClusters: x.NClusters(),
		CodeBytes: x.PQ.CodeBytes(),
		MinList:   int(^uint(0) >> 1),
	}
	for c := range x.Lists {
		n := x.Lists[c].Len()
		if n < st.MinList {
			st.MinList = n
		}
		if n > st.MaxList {
			st.MaxList = n
		}
		st.TotalCodeBytes += int64(len(x.Lists[c].Codes))
	}
	st.MeanList = float64(x.NTotal) / float64(x.NClusters())
	st.CentroidBytes = 2 * int64(x.Centroids.Rows) * int64(x.Centroids.Cols)
	st.CodebookBytes = int64(x.PQ.CodebookBytes())
	raw := 2 * int64(x.NTotal) * int64(x.D)
	if st.TotalCodeBytes > 0 {
		st.CompressionRatio = float64(raw) / float64(st.TotalCodeBytes)
	}
	return st
}
