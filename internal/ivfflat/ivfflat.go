// Package ivfflat implements IVF-Flat: coarse clustering with
// uncompressed per-cluster vector storage. It is the midpoint between
// exhaustive search and IVF-PQ — the same cluster filtering as the
// two-level scheme of Section II-C, but exact in-cluster scoring and
// full-precision memory cost (2·N·D bytes). The harness's graph/memory
// comparison uses it to show what PQ's compression buys;
// internal/harness/graph.go is its only importer, and it is kept for
// that experiment alone.
package ivfflat

import (
	"fmt"

	"anna/internal/kmeans"
	"anna/internal/pq"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Config controls index construction.
type Config struct {
	NClusters   int
	CoarseIters int // default 20
	MaxTrain    int
	Seed        int64
	Workers     int
}

// Index is a built IVF-Flat index.
type Index struct {
	Metric    pq.Metric
	D         int
	Centroids *vecmath.Matrix
	// IDs[c] and Vecs[c] hold cluster c's members; Vecs[c] is row-major
	// len(IDs[c]) x D.
	IDs  [][]int64
	Vecs [][]float32
	N    int
}

// Build clusters and stores the rows of data.
func Build(data *vecmath.Matrix, metric pq.Metric, cfg Config) *Index {
	if cfg.NClusters <= 0 {
		panic("ivfflat: NClusters must be positive")
	}
	if cfg.CoarseIters == 0 {
		cfg.CoarseIters = 20
	}
	res := kmeans.Train(data, kmeans.Config{
		K: cfg.NClusters, MaxIters: cfg.CoarseIters, Seed: cfg.Seed,
		Workers: cfg.Workers, MaxSamples: cfg.MaxTrain,
	})
	x := &Index{
		Metric: metric, D: data.Cols, Centroids: res.Centroids,
		IDs: make([][]int64, cfg.NClusters), Vecs: make([][]float32, cfg.NClusters),
		N: data.Rows,
	}
	for i := 0; i < data.Rows; i++ {
		c := res.Assign[i]
		x.IDs[c] = append(x.IDs[c], int64(i))
		x.Vecs[c] = append(x.Vecs[c], data.Row(i)...)
	}
	return x
}

// Search returns the exact top-k among the w nearest clusters' members.
func (x *Index) Search(q []float32, w, k int) []topk.Result {
	if w <= 0 || k <= 0 {
		panic(fmt.Sprintf("ivfflat: invalid params w=%d k=%d", w, k))
	}
	if len(q) != x.D {
		panic("ivfflat: query dimension mismatch")
	}
	// Cluster filtering.
	if w > x.Centroids.Rows {
		w = x.Centroids.Rows
	}
	csel := topk.NewSelector(w)
	for c := 0; c < x.Centroids.Rows; c++ {
		var s float32
		if x.Metric == pq.InnerProduct {
			s = vecmath.Dot(q, x.Centroids.Row(c))
		} else {
			s = -vecmath.L2Sq(q, x.Centroids.Row(c))
		}
		csel.Push(int64(c), s)
	}
	// Exact scan of the selected clusters.
	sel := topk.NewSelector(k)
	for _, cr := range csel.Results() {
		c := int(cr.ID)
		vecs := x.Vecs[c]
		for i, id := range x.IDs[c] {
			v := vecs[i*x.D : (i+1)*x.D]
			var s float32
			if x.Metric == pq.InnerProduct {
				s = vecmath.Dot(q, v)
			} else {
				s = -vecmath.L2Sq(q, v)
			}
			sel.Push(id, s)
		}
	}
	return sel.Results()
}

// MemoryBytes is the index footprint: full-precision vectors at 2 B per
// element (the f16 storage the paper assumes) plus centroids and IDs.
func (x *Index) MemoryBytes() int64 {
	return 2*int64(x.N)*int64(x.D) +
		2*int64(x.Centroids.Rows)*int64(x.D) +
		8*int64(x.N)
}
