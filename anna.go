package anna

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"anna/internal/adaptive"
	"anna/internal/engine"
	"anna/internal/exact"
	"anna/internal/ivf"
	"anna/internal/pq"
	"anna/internal/recall"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Metric selects the similarity function.
type Metric int

const (
	// InnerProduct scores s(q,x) = q·x (maximum inner product search).
	InnerProduct Metric = iota
	// L2 ranks by Euclidean distance; reported scores are -||q-x||² so
	// that larger is always more similar.
	L2
)

func (m Metric) String() string {
	if m == InnerProduct {
		return "inner-product"
	}
	return "l2"
}

func (m Metric) internal() pq.Metric {
	if m == InnerProduct {
		return pq.InnerProduct
	}
	return pq.L2
}

// Result is one scored neighbor (fields ID int64 and Score float32).
// Score follows the larger-is-more-similar convention for both metrics.
// It is the engine's own result type, so rows cross the API uncopied.
type Result = topk.Result

// BuildOptions configure index construction.
type BuildOptions struct {
	// NClusters is the number of coarse clusters |C| (the paper uses 250
	// for million-scale and 10000 for billion-scale datasets).
	NClusters int
	// M is the number of PQ sub-spaces; it must divide the vector
	// dimensionality.
	M int
	// Ks is the codebook size k*; the ANNA hardware supports 16 and 256.
	Ks int
	// TrainIters bounds k-means iterations (default 20).
	TrainIters int
	// MaxTrain caps the training sample (0 = use everything).
	MaxTrain int
	Seed     int64
	// Workers bounds the parallelism of the whole build pipeline
	// (k-means passes, per-sub-space codebook training, batch encoding)
	// and becomes the index's initial ingest parallelism for Add; 0
	// means GOMAXPROCS. The built index is bit-identical for any value.
	Workers int
	// HardwareFaithful rounds centroids and codebooks through IEEE
	// binary16, matching what the accelerator stores in SRAM. Enable it
	// when simulated and software searches must agree bit-for-bit.
	HardwareFaithful bool
	// OPQRotation preconditions the space with a random orthonormal
	// rotation before quantization (the OPQ variant the paper notes ANNA
	// supports unchanged). Queries are rotated transparently at search.
	OPQRotation bool
	// AnisotropicEta enables ScaNN-style score-aware encoding when > 1:
	// quantization error parallel to the datapoint is penalised by this
	// factor, which improves maximum-inner-product recall at equal
	// compression. Typical values are 2–6. Zero or one keeps the plain
	// (Faiss-style) reconstruction objective.
	AnisotropicEta float32
	// RetainForRerank keeps an 8-bit scalar-quantized copy of every
	// vector (Dim bytes each) so SearchRerank can refine PQ candidate
	// order with near-exact re-scoring ("re-rank with source coding").
	RetainForRerank bool
}

// Index is a two-level product-quantization ANNS index.
type Index struct {
	inner *ivf.Index

	// eng is the persistent batch engine, created on first SearchBatch
	// so its per-worker searcher/selector/LUT pools survive across
	// requests (a per-call engine would re-allocate them every batch).
	engOnce sync.Once
	eng     *engine.Engine
}

// engine returns the index's persistent batch engine.
func (x *Index) engine() *engine.Engine {
	x.engOnce.Do(func() { x.eng = engine.New(x.inner) })
	return x.eng
}

// EnginePoolStats reports the live saturation of the batch engine's
// worker pool: work items admitted but not yet started, and items
// executing right now. Both read zero when no batch is running. The
// serving layer exports them as the anna_engine_queue_depth and
// anna_engine_inflight_queries gauges.
func (x *Index) EnginePoolStats() (queueDepth, inFlight int64) {
	e := x.engine()
	return e.QueueDepth(), e.InFlight()
}

// BuildIndex trains an index over the given vectors (all of equal,
// non-zero length).
func BuildIndex(vectors [][]float32, metric Metric, opt BuildOptions) (*Index, error) {
	m, err := toMatrix(vectors)
	if err != nil {
		return nil, err
	}
	if opt.NClusters <= 0 || opt.NClusters > len(vectors) {
		return nil, fmt.Errorf("anna: NClusters must be in 1..%d, got %d", len(vectors), opt.NClusters)
	}
	if opt.M <= 0 || m.Cols%opt.M != 0 {
		return nil, fmt.Errorf("anna: M=%d must divide dimensionality %d", opt.M, m.Cols)
	}
	if opt.Ks < 2 || opt.Ks > 256 {
		return nil, fmt.Errorf("anna: Ks=%d out of range 2..256", opt.Ks)
	}
	if len(vectors) < opt.Ks {
		return nil, fmt.Errorf("anna: %d vectors cannot train Ks=%d codebooks", len(vectors), opt.Ks)
	}
	idx := ivf.Build(m, metric.internal(), ivf.Config{
		NClusters:      opt.NClusters,
		M:              opt.M,
		Ks:             opt.Ks,
		CoarseIters:    opt.TrainIters,
		PQIters:        opt.TrainIters,
		MaxTrain:       opt.MaxTrain,
		Seed:           opt.Seed,
		Workers:        opt.Workers,
		F16:            opt.HardwareFaithful,
		Rotate:         opt.OPQRotation,
		AnisotropicEta: opt.AnisotropicEta,
		Rerank:         opt.RetainForRerank,
	})
	idx.IngestWorkers = opt.Workers
	return &Index{inner: idx}, nil
}

// SetIngestWorkers bounds the parallelism of Add's batched
// assign+encode pipeline (0 = GOMAXPROCS); the ingested index contents
// are byte-identical for any value. Loaded indexes default to 0. Call it
// between, not during, Adds.
func (x *Index) SetIngestWorkers(n int) { x.inner.IngestWorkers = n }

// Add encodes and appends new vectors to an existing index using its
// trained model (centroids, codebooks, rotation), returning the ID
// assigned to the first added vector; subsequent vectors get consecutive
// IDs. The trained model is NOT retrained — like Faiss's add(), quality
// degrades if the data distribution drifts far from the training set.
func (x *Index) Add(vectors [][]float32) (firstID int64, err error) {
	m, err := toMatrix(vectors)
	if err != nil {
		return 0, err
	}
	if m.Cols != x.inner.D {
		return 0, fmt.Errorf("anna: vector dim %d, index dim %d", m.Cols, x.inner.D)
	}
	return x.inner.Add(m), nil
}

// Delete tombstones vectors by ID: they stop appearing in results
// immediately, while their codes remain until Compact. Unknown or
// already-deleted IDs are ignored; the count of newly deleted IDs is
// returned.
func (x *Index) Delete(ids ...int64) int { return x.inner.Delete(ids...) }

// Compact rewrites the inverted lists without tombstoned entries,
// reclaiming their space. IDs are never renumbered, so references held
// by callers stay valid. It returns the number of entries removed.
func (x *Index) Compact() int { return x.inner.Compact() }

// Live returns the number of searchable (non-deleted) vectors.
func (x *Index) Live() int { return x.inner.Live() }

// toMatrix validates and copies a slice-of-rows into a dense matrix.
func toMatrix(vectors [][]float32) (*vecmath.Matrix, error) {
	if len(vectors) == 0 {
		return nil, errors.New("anna: no vectors")
	}
	d := len(vectors[0])
	if d == 0 {
		return nil, errors.New("anna: zero-dimensional vectors")
	}
	m := vecmath.NewMatrix(len(vectors), d)
	for i, v := range vectors {
		if len(v) != d {
			return nil, fmt.Errorf("anna: vector %d has %d dims, want %d", i, len(v), d)
		}
		m.SetRow(i, v)
	}
	return m, nil
}

// Metric returns the index's similarity metric.
func (x *Index) Metric() Metric {
	if x.inner.Metric == pq.InnerProduct {
		return InnerProduct
	}
	return L2
}

// Len returns the number of indexed vectors.
func (x *Index) Len() int { return x.inner.NTotal }

// Dim returns the vector dimensionality.
func (x *Index) Dim() int { return x.inner.D }

// NClusters returns |C|.
func (x *Index) NClusters() int { return x.inner.NClusters() }

// AppendQueryCode appends the PQ code of query (in index space, i.e.
// after the build-time rotation) to dst and returns the extended slice.
// The code is the index's own M-byte quantization of the query — a
// compact, content-derived fingerprint the serving layer uses as the
// result-cache hash key. The quantizer is immutable after build, so
// this is safe to call concurrently with searches and adds. It panics
// when len(query) != Dim(), matching Search's convention.
func (x *Index) AppendQueryCode(dst []byte, query []float32) []byte {
	return x.inner.PQ.Encode(dst, x.inner.PrepQuery(query))
}

// Stats describes the built index.
type Stats struct {
	Vectors, Clusters      int
	CodeBytesPerVector     int
	TotalCodeBytes         int64
	CompressionRatio       float64
	MinListLen, MaxListLen int
}

// Stats returns index shape statistics.
func (x *Index) Stats() Stats {
	st := x.inner.ComputeStats()
	return Stats{
		Vectors:            st.NTotal,
		Clusters:           st.NClusters,
		CodeBytesPerVector: st.CodeBytes,
		TotalCodeBytes:     st.TotalCodeBytes,
		CompressionRatio:   st.CompressionRatio,
		MinListLen:         st.MinList,
		MaxListLen:         st.MaxList,
	}
}

// Search returns the k most similar indexed vectors to query, inspecting
// the w nearest clusters (the recall/throughput knob). It panics on
// invalid parameters, matching slice-indexing conventions for programmer
// errors.
func (x *Index) Search(query []float32, w, k int) []Result {
	return x.inner.Search(query, ivf.SearchParams{W: w, K: k})
}

// SearchRerank runs the PQ search for k*factor candidates and re-scores
// them against 8-bit reconstructions of the original vectors, returning
// the top k in refined order. The index must have been built with
// RetainForRerank. On the real system this refinement runs on the host
// over the accelerator's returned candidates.
func (x *Index) SearchRerank(query []float32, w, k, factor int) ([]Result, error) {
	if !x.inner.CanRerank() {
		return nil, errors.New("anna: index built without RetainForRerank")
	}
	if len(query) != x.inner.D {
		return nil, fmt.Errorf("anna: query dim %d, index dim %d", len(query), x.inner.D)
	}
	return x.inner.SearchRerank(query, ivf.SearchParams{W: w, K: k}, factor), nil
}

// SearchMode selects the batch execution discipline (Section II-D /
// Figure 5 of the paper).
type SearchMode int

const (
	// QueryAtATime processes each query independently.
	QueryAtATime SearchMode = iota
	// ClusterMajor batches queries by visited cluster, reusing each
	// fetched inverted list across queries (the discipline ANNA's
	// memory traffic optimization implements in hardware).
	ClusterMajor
)

// AdaptiveOptions are the per-query effort policies of the adaptive
// search layer (see docs/ARCHITECTURE.md §4j): StopPatience and
// MinClusters steer early termination of the cluster scan,
// EscalateFactor and Margin the SQ8 precision escalation (which needs an
// index built with RetainForRerank and is silently ignored otherwise).
// The zero value disables both policies, leaving SearchBatch
// bit-identical to the fixed path.
type AdaptiveOptions = adaptive.Params

// SearchOptions configure SearchBatch.
type SearchOptions struct {
	W, K    int
	Mode    SearchMode
	Workers int
	// HardwareFaithful rounds LUT entries and scores through binary16,
	// matching the accelerator datapath exactly.
	HardwareFaithful bool
	// Adaptive enables per-query effort policies. When enabled the
	// engine always runs query-at-a-time (early termination is a
	// sequential per-query decision), overriding Mode.
	Adaptive AdaptiveOptions
}

// BatchReport is the outcome of a software batch search.
type BatchReport struct {
	Results [][]Result
	// QPS is the measured wall-clock throughput of this process.
	QPS float64
	// Elapsed is the wall-clock duration of the search phase.
	Elapsed time.Duration
	// ScannedVectors counts similarity computations performed.
	ScannedVectors int64
	// ListBytesTouched counts inverted-list bytes read (once per visiting
	// query in QueryAtATime; once per visited list in ClusterMajor).
	ListBytesTouched int64
	// SelectTime / ScanTime / MergeTime split the batch into the three
	// search stages — cluster filtering, LUT build + list scan, top-k
	// merge — summed across engine workers (their total can exceed
	// Elapsed on multi-worker runs). The serving layer records them into
	// the anna_stage_duration_seconds histograms.
	SelectTime, ScanTime, MergeTime time.Duration
	// ClustersScanned counts inverted lists actually scanned —
	// len(queries)*W on the fixed path, fewer under adaptive early
	// termination.
	ClustersScanned int64
	// Escalations counts candidates re-scored through the SQ8
	// escalation band; RerankTime is the worker time that took. Both
	// are zero unless AdaptiveOptions enabled escalation.
	Escalations int64
	RerankTime  time.Duration
}

// SearchBatch runs a batch of queries on the software engine and reports
// measured performance.
func (x *Index) SearchBatch(queries [][]float32, opt SearchOptions) (*BatchReport, error) {
	return x.SearchBatchContext(context.Background(), queries, opt)
}

// SearchBatchContext is SearchBatch with cancellation: engine workers
// re-check ctx between work items, so a cancelled or deadline-exceeded
// request stops within one item's latency per worker and returns ctx's
// error.
func (x *Index) SearchBatchContext(ctx context.Context, queries [][]float32, opt SearchOptions) (*BatchReport, error) {
	qm, err := toMatrix(queries)
	if err != nil {
		return nil, err
	}
	if qm.Cols != x.inner.D {
		return nil, fmt.Errorf("anna: query dim %d, index dim %d", qm.Cols, x.inner.D)
	}
	if opt.W <= 0 || opt.K <= 0 {
		return nil, fmt.Errorf("anna: W and K must be positive (got %d, %d)", opt.W, opt.K)
	}
	mode := engine.QueryAtATime
	if opt.Mode == ClusterMajor {
		mode = engine.ClusterMajor
	}
	rep, err := x.engine().RunContext(ctx, qm, engine.Options{
		Mode: mode, W: opt.W, K: opt.K,
		Workers: opt.Workers, HWF16: opt.HardwareFaithful,
		Adaptive: opt.Adaptive,
	})
	if err != nil {
		return nil, err
	}
	out := &BatchReport{
		QPS:              rep.QPS,
		Elapsed:          rep.Elapsed,
		ScannedVectors:   rep.ScannedVectors,
		ListBytesTouched: rep.ListBytesTouched,
		SelectTime:       rep.SelectTime,
		ScanTime:         rep.ScanTime,
		MergeTime:        rep.MergeTime,
		ClustersScanned:  rep.ClustersScanned,
		Escalations:      rep.Escalations,
		RerankTime:       rep.RerankTime,
		Results:          rep.Results,
	}
	return out, nil
}

// NextID returns the ID the next Add will assign to its first vector.
func (x *Index) NextID() int64 { return x.inner.NextID() }

// Save writes the index to w in the checksummed binary ANNAIVF3 format.
func (x *Index) Save(w io.Writer) error { return x.inner.Save(w) }

// SaveFile writes the index to a file atomically: a temp file in the
// same directory is written, fsynced, and renamed over path, so a crash
// mid-save never leaves a truncated index behind.
func (x *Index) SaveFile(path string) error { return x.inner.SaveFile(path) }

// LoadIndex reads an index written by Save.
func LoadIndex(r io.Reader) (*Index, error) {
	idx, err := ivf.Load(r)
	if err != nil {
		return nil, err
	}
	return &Index{inner: idx}, nil
}

// LoadIndexFile reads an index from a file.
func LoadIndexFile(path string) (*Index, error) {
	idx, err := ivf.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Index{inner: idx}, nil
}

// ExactSearch performs exhaustive exact search over raw vectors — the
// ground-truth generator and the "brute force" baseline of the paper's
// Figure 8 footnotes.
func ExactSearch(vectors [][]float32, metric Metric, query []float32, k int) ([]Result, error) {
	m, err := toMatrix(vectors)
	if err != nil {
		return nil, err
	}
	if len(query) != m.Cols {
		return nil, fmt.Errorf("anna: query dim %d, data dim %d", len(query), m.Cols)
	}
	return exact.New(metric.internal(), m).Search(query, k), nil
}

// Recall computes recall X@Y: of the x true neighbors, the fraction
// present among the first y returned candidates.
func Recall(x, y int, truth []int64, got []Result) float64 {
	return recall.XAtY(x, y, truth, got)
}
