package engine

import (
	"testing"

	"anna/internal/dataset"
	"anna/internal/ivf"
	"anna/internal/pq"
	"anna/internal/topk"
)

func testIndex(t testing.TB, metric pq.Metric) (*ivf.Index, *dataset.Dataset) {
	t.Helper()
	spec := dataset.SIFTLike(3000, 12, 1)
	spec.D = 32
	spec.Metric = metric
	ds := dataset.Generate(spec)
	idx := ivf.Build(ds.Base, metric, ivf.Config{
		NClusters: 25, M: 8, Ks: 16, CoarseIters: 6, PQIters: 6, Seed: 2,
	})
	return idx, ds
}

func referenceResults(idx *ivf.Index, ds *dataset.Dataset, w, k int, hw bool) [][]topk.Result {
	out := make([][]topk.Result, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		// Anchor against the unfused reference scan, so these tests prove
		// the whole fused engine path end to end.
		out[qi] = idx.SearchReference(ds.Queries.Row(qi), ivf.SearchParams{W: w, K: k, HWF16: hw})
	}
	return out
}

func resultsEqual(t *testing.T, label string, a, b [][]topk.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for qi := range a {
		if len(a[qi]) != len(b[qi]) {
			t.Fatalf("%s q%d: %d vs %d results", label, qi, len(a[qi]), len(b[qi]))
		}
		for i := range a[qi] {
			if a[qi][i] != b[qi][i] {
				t.Fatalf("%s q%d rank %d: %v vs %v", label, qi, i, a[qi][i], b[qi][i])
			}
		}
	}
}

func TestQueryMajorMatchesReference(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		idx, ds := testIndex(t, metric)
		rep := New(idx).Run(ds.Queries, Options{Mode: QueryAtATime, W: 6, K: 10})
		want := referenceResults(idx, ds, 6, 10, false)
		for qi := range want {
			for i := range want[qi] {
				if rep.Results[qi][i] != want[qi][i] {
					t.Fatalf("%v q%d rank %d: %+v vs %+v",
						metric, qi, i, rep.Results[qi][i], want[qi][i])
				}
			}
		}
	}
}

func TestClusterMajorMatchesQueryMajorScores(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		idx, ds := testIndex(t, metric)
		e := New(idx)
		qm := e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 6, K: 10})
		cm := e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10})
		// Cluster visit order differs between the modes and from run to
		// run; the selector orders equal scores by ID, so IDs agree too.
		resultsEqual(t, metric.String(), cm.Results, qm.Results)
	}
}

func TestHWF16MatchesAcceleratorReference(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	rep := New(idx).Run(ds.Queries, Options{Mode: QueryAtATime, W: 6, K: 10, HWF16: true})
	want := referenceResults(idx, ds, 6, 10, true)
	for qi := range want {
		for i := range want[qi] {
			if rep.Results[qi][i] != want[qi][i] {
				t.Fatalf("q%d rank %d: %+v vs %+v", qi, i, rep.Results[qi][i], want[qi][i])
			}
		}
	}
}

func TestWorkerCountInvariant(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	ref := e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10, Workers: 1})
	for _, w := range []int{2, 4, 16} {
		got := e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10, Workers: w})
		resultsEqual(t, "workers", got.Results, ref.Results)
	}
}

func TestTrafficAccountingReflectsReuse(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	qm := e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 6, K: 10})
	cm := e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10})
	// Identical scan work…
	if qm.ScannedVectors != cm.ScannedVectors {
		t.Errorf("scanned: %d vs %d", qm.ScannedVectors, cm.ScannedVectors)
	}
	// …but cluster-major touches each visited list once.
	if cm.ListBytesTouched >= qm.ListBytesTouched {
		t.Errorf("cluster-major bytes %d >= query-major %d",
			cm.ListBytesTouched, qm.ListBytesTouched)
	}
	// Query-major bytes equal the sum over (query, cluster) pairs.
	var want int64
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		for _, c := range idx.SelectClusters(ds.Queries.Row(qi), 6) {
			want += idx.ListBytes(c)
		}
	}
	if qm.ListBytesTouched != want {
		t.Errorf("query-major bytes = %d, want %d", qm.ListBytesTouched, want)
	}
}

func TestRunPanicsOnBadOptions(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	for _, o := range []Options{{W: 0, K: 1}, {W: 1, K: 0}, {Mode: Mode(9), W: 1, K: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", o)
				}
			}()
			New(idx).Run(ds.Queries, o)
		}()
	}
}

func TestReportFields(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	rep := New(idx).Run(ds.Queries, Options{Mode: QueryAtATime, W: 3, K: 5})
	if rep.QPS <= 0 || rep.Elapsed <= 0 {
		t.Errorf("QPS=%v Elapsed=%v", rep.QPS, rep.Elapsed)
	}
	if rep.ScannedVectors <= 0 || rep.ListBytesTouched <= 0 {
		t.Errorf("counters: %d %d", rep.ScannedVectors, rep.ListBytesTouched)
	}
	if len(rep.Results) != ds.Queries.Rows {
		t.Errorf("results len %d", len(rep.Results))
	}
}

func TestModeString(t *testing.T) {
	if QueryAtATime.String() != "query-at-a-time" || ClusterMajor.String() != "cluster-major" {
		t.Error("mode names")
	}
}

// TestResultsSurviveSubsequentRuns guards the result-arena design: a
// Report's results must stay valid after later Runs on the same Engine
// (worker scratch is pooled, result storage is not).
func TestResultsSurviveSubsequentRuns(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	opt := Options{Mode: QueryAtATime, W: 6, K: 10}
	first := e.Run(ds.Queries, opt)
	snapshot := make([][]topk.Result, len(first.Results))
	for qi, rs := range first.Results {
		snapshot[qi] = append([]topk.Result(nil), rs...)
	}
	for i := 0; i < 3; i++ {
		e.Run(ds.Queries, opt)
		e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10})
	}
	resultsEqual(t, "after reuse", first.Results, snapshot)
	for qi := range snapshot {
		for i := range snapshot[qi] {
			if first.Results[qi][i] != snapshot[qi][i] {
				t.Fatalf("q%d rank %d mutated by a later Run", qi, i)
			}
		}
	}
}

// TestEngineWithDeletions checks both disciplines against the reference
// when tombstones force the filtered scan path.
func TestEngineWithDeletions(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		idx, ds := testIndex(t, metric)
		idx.Delete(0, 5, 100, 101, 102, 2000, 2999)
		want := referenceResults(idx, ds, 6, 10, false)
		e := New(idx)
		qm := e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 6, K: 10})
		cm := e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10})
		for qi := range want {
			for i := range want[qi] {
				if qm.Results[qi][i] != want[qi][i] {
					t.Fatalf("%v query-major q%d rank %d: %+v vs %+v",
						metric, qi, i, qm.Results[qi][i], want[qi][i])
				}
			}
		}
		resultsEqual(t, metric.String()+" cluster-major", cm.Results, want)
	}
}

// TestClusterMajorIPLUTReuse pins the satellite fix: inner-product
// cluster-major must match the reference bit-for-bit under HWF16, where
// any stray FillIP-per-cluster or recomputed bias would show up as a
// rounding difference.
func TestClusterMajorIPLUTReuse(t *testing.T) {
	idx, ds := testIndex(t, pq.InnerProduct)
	want := referenceResults(idx, ds, 8, 10, true)
	rep := New(idx).Run(ds.Queries, Options{Mode: ClusterMajor, W: 8, K: 10, HWF16: true})
	resultsEqual(t, "ip cluster-major hwf16", rep.Results, want)
}

func BenchmarkQueryMajor(b *testing.B) {
	idx, ds := testIndex(b, pq.L2)
	e := New(idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 8, K: 100})
	}
}

func BenchmarkClusterMajor(b *testing.B) {
	idx, ds := testIndex(b, pq.L2)
	e := New(idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(ds.Queries, Options{Mode: ClusterMajor, W: 8, K: 100})
	}
}

// benchEngineSearch measures the steady-state cost per QUERY of the
// worker-pool engine on a larger batch: one warmup Run populates the
// searcher pool, then allocations per query are reported alongside
// ns/query. These are the numbers BENCH_engine.json records.
func benchEngineSearch(b *testing.B, mode Mode) {
	spec := dataset.SIFTLike(20000, 256, 1)
	ds := dataset.Generate(spec)
	idx := ivf.Build(ds.Base, pq.L2, ivf.Config{
		NClusters: 64, M: 32, Ks: 16, CoarseIters: 5, PQIters: 5, Seed: 1,
	})
	e := New(idx)
	opt := Options{Mode: mode, W: 8, K: 100}
	e.Run(ds.Queries, opt) // warm the searcher pool
	nq := float64(ds.Queries.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	var qps float64
	for i := 0; i < b.N; i++ {
		qps = e.Run(ds.Queries, opt).QPS
	}
	b.StopTimer()
	b.ReportMetric(qps, "qps")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*nq), "ns/query")
}

func BenchmarkEngineSearchQueryMajor(b *testing.B)   { benchEngineSearch(b, QueryAtATime) }
func BenchmarkEngineSearchClusterMajor(b *testing.B) { benchEngineSearch(b, ClusterMajor) }
