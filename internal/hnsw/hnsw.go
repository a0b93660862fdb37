// Package hnsw implements Hierarchical Navigable Small World graphs
// [Malkov & Yashunin, TPAMI 2018] — the leading graph-based ANNS family
// the paper positions AGAINST compression-based search (Section II-A,
// Section VI): graph methods win on million-scale workloads but "are
// impractical for billion-scale searches as they require a large graph
// to be resident in memory" along with the uncompressed vectors.
//
// This implementation exists to quantify that trade-off inside this
// repository (harness experiment `graph`): recall/QPS against IVF-PQ at
// million scale, and the memory-footprint comparison that rules HNSW out
// at billion scale. internal/harness/graph.go is its only importer: it
// is kept because that experiment regenerates the paper's
// graph-vs-compression argument, and serves no query outside it.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"

	"anna/internal/pq"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Config controls graph construction.
type Config struct {
	// M is the maximum out-degree per layer (layer 0 allows 2M).
	// Default 16.
	M int
	// EfConstruction is the beam width during insertion. Default 200.
	EfConstruction int
	// Metric selects the similarity (scores follow the repository's
	// larger-is-more-similar convention).
	Metric pq.Metric
	Seed   int64
}

func (c *Config) defaults() {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
}

// Graph is a built HNSW index. It references (does not copy) the data
// matrix — graph methods need the full-precision vectors at search time,
// which is exactly the memory cost the paper highlights.
type Graph struct {
	cfg  Config
	data *vecmath.Matrix
	// links[l][n] is node n's neighbor list at layer l (nil above the
	// node's top layer).
	links [][][]int32
	// level[n] is node n's top layer.
	level []int
	entry int
	maxL  int
	rng   *rand.Rand
	// DistanceComputations counts similarity evaluations (for cost
	// accounting in the harness).
	DistanceComputations int64
}

// Build constructs the graph over the rows of data.
func Build(data *vecmath.Matrix, cfg Config) *Graph {
	cfg.defaults()
	if data.Rows == 0 {
		panic("hnsw: no data")
	}
	g := &Graph{
		cfg:   cfg,
		data:  data,
		level: make([]int, data.Rows),
		entry: -1,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < data.Rows; i++ {
		g.insert(i)
	}
	return g
}

// score is the similarity between node n and vector q (larger = closer).
func (g *Graph) score(q []float32, n int) float32 {
	g.DistanceComputations++
	if g.cfg.Metric == pq.InnerProduct {
		return vecmath.Dot(q, g.data.Row(n))
	}
	return -vecmath.L2Sq(q, g.data.Row(n))
}

// randomLevel samples a layer with the standard exponential distribution
// (mL = 1/ln(M)).
func (g *Graph) randomLevel() int {
	ml := 1.0 / math.Log(float64(g.cfg.M))
	return int(-math.Log(g.rng.Float64()) * ml)
}

// insert adds node n to the graph.
func (g *Graph) insert(n int) {
	l := g.randomLevel()
	g.level[n] = l
	for len(g.links) <= l {
		g.links = append(g.links, make([][]int32, g.data.Rows))
	}

	if g.entry < 0 {
		g.entry, g.maxL = n, l
		return
	}

	q := g.data.Row(n)
	ep := g.entry
	// Greedy descent through layers above l.
	for lc := g.maxL; lc > l; lc-- {
		ep = g.greedy(q, ep, lc)
	}
	// Beam insertion on layers min(l, maxL)..0.
	top := l
	if top > g.maxL {
		top = g.maxL
	}
	for lc := top; lc >= 0; lc-- {
		cands := g.searchLayer(q, ep, g.cfg.EfConstruction, lc)
		m := g.cfg.M
		if lc == 0 {
			m = 2 * g.cfg.M
		}
		neighbors := g.selectNeighbors(q, cands, m)
		g.links[lc][n] = neighbors
		for _, nb := range neighbors {
			g.links[lc][nb] = append(g.links[lc][nb], int32(n))
			if len(g.links[lc][nb]) > m {
				g.shrink(int(nb), lc, m)
			}
		}
		if len(cands) > 0 {
			ep = int(cands[0].ID)
		}
	}
	if l > g.maxL {
		g.maxL, g.entry = l, n
	}
}

// greedy walks to the locally closest node at layer lc.
func (g *Graph) greedy(q []float32, ep, lc int) int {
	best, bestScore := ep, g.score(q, ep)
	for {
		improved := false
		for _, nb := range g.links[lc][best] {
			if s := g.score(q, int(nb)); s > bestScore {
				best, bestScore = int(nb), s
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

// searchLayer is the beam search: it returns up to ef candidates at
// layer lc sorted by descending similarity.
func (g *Graph) searchLayer(q []float32, ep, ef, lc int) []topk.Result {
	visited := map[int32]struct{}{int32(ep): {}}
	res := topk.NewSelector(ef)
	epScore := g.score(q, ep)
	res.Push(int64(ep), epScore)

	// Candidate max-frontier as a simple slice-backed heap on score.
	frontier := []topk.Result{{ID: int64(ep), Score: epScore}}
	pop := func() topk.Result {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].Score > frontier[best].Score {
				best = i
			}
		}
		r := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		return r
	}

	for len(frontier) > 0 {
		c := pop()
		if worst, full := res.Threshold(); full && c.Score < worst {
			break
		}
		for _, nb := range g.links[lc][c.ID] {
			if _, seen := visited[nb]; seen {
				continue
			}
			visited[nb] = struct{}{}
			s := g.score(q, int(nb))
			worst, full := res.Threshold()
			if !full || s > worst {
				res.Push(int64(nb), s)
				frontier = append(frontier, topk.Result{ID: int64(nb), Score: s})
			}
		}
	}
	return res.Results()
}

// selectNeighbors applies the HNSW diversity heuristic (Algorithm 4 of
// the paper): walk candidates in descending similarity to q and keep one
// only if it is closer to q than to every neighbor already kept. On
// clustered data this is what preserves the long-range edges that keep
// the graph navigable; plain closest-m selection disconnects clusters.
// Pruned candidates backfill remaining slots ("keepPruned").
func (g *Graph) selectNeighbors(q []float32, cands []topk.Result, m int) []int32 {
	kept := make([]int32, 0, m)
	var pruned []int32
	for _, c := range cands {
		if len(kept) >= m {
			break
		}
		diverse := true
		for _, r := range kept {
			// c is dominated if it is closer to a kept neighbor than to q.
			if g.score(g.data.Row(int(c.ID)), int(r)) > c.Score {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, int32(c.ID))
		} else {
			pruned = append(pruned, int32(c.ID))
		}
	}
	for _, p := range pruned {
		if len(kept) >= m {
			break
		}
		kept = append(kept, p)
	}
	return kept
}

// shrink re-selects node n's neighbor list at layer lc down to m using
// the same diversity heuristic.
func (g *Graph) shrink(n, lc, m int) {
	q := g.data.Row(n)
	sel := topk.NewSelector(len(g.links[lc][n]))
	for _, nb := range g.links[lc][n] {
		sel.Push(int64(nb), g.score(q, int(nb)))
	}
	g.links[lc][n] = g.selectNeighbors(q, sel.Results(), m)
}

// Search returns the top-k neighbors of q using beam width ef (>= k).
func (g *Graph) Search(q []float32, ef, k int) []topk.Result {
	if k <= 0 || ef < k {
		panic(fmt.Sprintf("hnsw: need ef >= k > 0, got ef=%d k=%d", ef, k))
	}
	if len(q) != g.data.Cols {
		panic("hnsw: query dimension mismatch")
	}
	ep := g.entry
	for lc := g.maxL; lc > 0; lc-- {
		ep = g.greedy(q, ep, lc)
	}
	res := g.searchLayer(q, ep, ef, 0)
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// Len returns the number of indexed vectors.
func (g *Graph) Len() int { return g.data.Rows }

// MemoryBytes returns the resident footprint the paper's argument turns
// on: full-precision vectors (2 bytes/dim as stored by the evaluated
// systems) plus the adjacency lists (4 bytes per link).
func (g *Graph) MemoryBytes() int64 {
	vectors := 2 * int64(g.data.Rows) * int64(g.data.Cols)
	var links int64
	for _, layer := range g.links {
		for _, l := range layer {
			links += int64(len(l)) * 4
		}
	}
	return vectors + links
}

// AvgDegree returns the mean layer-0 out-degree (graph quality proxy).
func (g *Graph) AvgDegree() float64 {
	if len(g.links) == 0 {
		return 0
	}
	var sum int
	for _, l := range g.links[0] {
		sum += len(l)
	}
	return float64(sum) / float64(g.data.Rows)
}

// EstimateMemoryBytes projects the footprint of an HNSW index over n
// d-dimensional vectors with out-degree m, without building it — the
// billion-scale feasibility check (vectors at 2 B/dim + ~(2m + m/ln(m))
// links of 4 B per node).
func EstimateMemoryBytes(n, d, m int) int64 {
	perNodeLinks := float64(2*m) + float64(m)/math.Log(float64(m))
	return 2*int64(n)*int64(d) + int64(float64(n)*perNodeLinks*4)
}
