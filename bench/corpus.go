package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"anna"
	"anna/internal/dataset"
	"anna/internal/exact"
)

// The search setting every workload uses. PQ-only recall@10 tops out near
// 0.55 on this corpus; the SQ8 rerank of the K*EscalateFactor PQ
// candidates is what reaches 0.9.
const (
	searchW = 32
	searchK = 10
)

var rerankPolicy = anna.AdaptiveOptions{EscalateFactor: 10, Margin: 1}

var searchOpts = anna.SearchOptions{W: searchW, K: searchK, Adaptive: rerankPolicy}

// corpus is the seeded dataset every workload shares: base vectors and a
// query pool split into a warm-up slice, the walk the timed phase reads,
// and the recall queries, all disjoint.
type corpus struct {
	ds     *dataset.Dataset
	rows   [][]float32 // base vectors
	pool   [][]float32 // every query
	warm   [][]float32
	walk   [][]float32
	recall [][]float32
}

func genCorpus(sz sizes, seed int64) *corpus {
	spec := dataset.SIFTLike(sz.n, sz.pool, seed)
	spec.D, spec.Groups, spec.Std = 64, 16, 0.5
	ds := dataset.Generate(spec)
	c := &corpus{ds: ds, rows: matrixRows(ds.Base.Rows, ds.Base.Row), pool: matrixRows(ds.Queries.Rows, ds.Queries.Row)}
	c.warm = c.pool[:sz.warmQ]
	c.walk = c.pool[sz.warmQ : sz.pool-sz.recallQ]
	c.recall = c.pool[sz.pool-sz.recallQ:]
	return c
}

func matrixRows(n int, row func(int) []float32) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = row(i)
	}
	return out
}

func buildIndex(rows [][]float32, nClusters int, seed int64) (*anna.Index, error) {
	return anna.BuildIndex(rows, anna.L2, anna.BuildOptions{
		NClusters: nClusters, M: 32, Ks: 16, TrainIters: 8, Seed: seed, RetainForRerank: true})
}

// recall sends the recall queries through the workload's front door and
// scores them against exact top-10 over the base vectors. Queries whose
// front-door call failed count as failed ops and as recall 0.
func (e *env) recall(w workload) (rec float64, failed int, first error) {
	c := w.corpus()
	got, failed, first := w.recallSearch(c.recall)
	ex := exact.New(c.ds.Metric, c.ds.Base)
	var sum float64
	for i, ids := range got {
		hit := 0
		for _, t := range ex.Search(c.recall[i], searchK) {
			for _, id := range ids {
				if id == t.ID {
					hit++
					break
				}
			}
		}
		sum += float64(hit) / float64(searchK)
	}
	return sum / float64(len(c.recall)), failed, first
}

// checkRow is the per-response correctness check: exactly K results,
// sorted by score, every ID one the index could have returned.
func checkRow(n int, at func(i int) (id int64, score float32), valid func(int64) bool) error {
	if n != searchK {
		return fmt.Errorf("%d results, want %d", n, searchK)
	}
	var prev float32
	for i := 0; i < n; i++ {
		id, score := at(i)
		if !valid(id) {
			return fmt.Errorf("result %d: id %d out of range", i, id)
		}
		if i > 0 && score > prev {
			return fmt.Errorf("results not sorted by score at %d", i)
		}
		prev = score
	}
	return nil
}

// sample is one front-door call of the timed phase.
type sample struct {
	start, end time.Duration // offsets from the phase start
	add        bool          // POST /add; otherwise a search
	n          int           // queries searched or vectors added
	failed     bool
}

// closedLoop runs callers that each issue their next op only after the
// previous one returned, for d. It returns every op and the first error.
func closedLoop(callers int, d time.Duration, op func(caller, i int) (add bool, n int, err error)) ([]sample, error) {
	per := make([][]sample, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				start := time.Since(t0)
				if start >= d {
					return
				}
				add, n, err := op(c, i)
				per[c] = append(per[c], sample{start: start, end: time.Since(t0), add: add, n: n, failed: err != nil})
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	var first error
	for c := range per {
		all = append(all, per[c]...)
		if first == nil {
			first = errs[c]
		}
	}
	return all, first
}

// phaseStats summarises a timed phase.
type phaseStats struct {
	attempted, failed, searches, adds int
	searchQPS, searchP50, searchP99   float64
	addVPS, addP50, addP99            float64
	// what the medians were taken over, printed so a reader can judge how
	// steady the run was
	windowQPS, windowP99 []float64
	overallP99           float64
}

const windows = 10

// summarize turns the samples of a phase of the given length into its
// metrics. The phase is cut into ten windows. search_qps is the median
// window's rate, each call's queries spread evenly over the time it took,
// so a stall in one window does not decide the figure and a 70 ms batch
// call is not quantised to whichever window it ended in. search_p99_ms is
// the median over windows of the window's 99th percentile (nearest rank;
// the maximum when a window has under 100 calls).
func summarize(samples []sample, seconds float64) phaseStats {
	var ph phaseStats
	win := time.Duration(seconds * float64(time.Second) / windows)
	var queries [windows]float64
	var lat [windows][]float64
	var all, addLat []float64
	addedVectors := 0
	for _, s := range samples {
		ph.attempted++
		if s.failed {
			ph.failed++
			continue
		}
		ms := float64(s.end-s.start) / float64(time.Millisecond)
		if s.add {
			ph.adds++
			addedVectors += s.n
			addLat = append(addLat, ms)
			continue
		}
		ph.searches++
		all = append(all, ms)
		if w := int(s.end / win); w < windows {
			lat[w] = append(lat[w], ms)
		}
		for w := int(s.start / win); w < windows && time.Duration(w)*win < s.end; w++ {
			lo, hi := max(s.start, time.Duration(w)*win), min(s.end, time.Duration(w+1)*win)
			queries[w] += float64(s.n) * float64(hi-lo) / float64(max(s.end-s.start, 1))
		}
	}
	var qps, p99 []float64
	for w := 0; w < windows; w++ {
		qps = append(qps, queries[w]/win.Seconds())
		if len(lat[w]) > 0 {
			sort.Float64s(lat[w])
			p99 = append(p99, percentile(lat[w], 0.99))
		}
	}
	ph.searchQPS = median(qps)
	ph.searchP50 = median(all)
	ph.searchP99 = median(p99)
	sort.Float64s(all)
	ph.windowQPS, ph.windowP99, ph.overallP99 = qps, p99, percentile(all, 0.99)
	ph.addVPS = float64(addedVectors) / seconds
	ph.addP50 = median(addLat)
	sort.Float64s(addLat)
	ph.addP99 = percentile(addLat, 0.99)
	return ph
}

// median returns the median of v (0 when empty) without reordering it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-quantile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// engineSearch is the in-process front door: one SearchBatchContext over
// the batch, every row checked.
func engineSearch(idx *anna.Index, batch [][]float32) (*anna.BatchReport, error) {
	rep, err := idx.SearchBatchContext(context.Background(), batch, searchOpts)
	if err != nil {
		return nil, err
	}
	if len(rep.Results) != len(batch) {
		return nil, fmt.Errorf("%d result rows for %d queries", len(rep.Results), len(batch))
	}
	n := int64(idx.Len())
	valid := func(id int64) bool { return id >= 0 && id < n }
	for _, row := range rep.Results {
		if err := checkRow(len(row), func(i int) (int64, float32) { return row[i].ID, row[i].Score }, valid); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
