package engine

import (
	"testing"

	"anna/internal/adaptive"
	"anna/internal/dataset"
	"anna/internal/ivf"
	"anna/internal/pq"
)

// The engine-level half of the bit-exactness pin: an adaptive run with
// termination enabled but infinite patience must produce exactly the
// fixed run's results, for both metrics.
func TestAdaptiveInfinitePatienceMatchesFixed(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		idx, ds := testIndex(t, metric)
		e := New(idx)
		fixed := e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 10, K: 10})
		adapt := e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 10, K: 10,
			Adaptive: adaptive.Params{StopPatience: idx.NClusters() + 1, MinClusters: 1}})
		resultsEqual(t, metric.String()+" adaptive-infinite-patience", fixed.Results, adapt.Results)
		if adapt.ClustersScanned != fixed.ClustersScanned {
			t.Fatalf("%v: clusters scanned %d vs fixed %d", metric, adapt.ClustersScanned, fixed.ClustersScanned)
		}
	}
}

// An adaptive run requesting ClusterMajor must be forced onto the
// query-at-a-time discipline and actually terminate early: clusters
// scanned drops below n*W while results stay valid.
func TestAdaptiveForcesQueryMajorAndTerminates(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	w := idx.NClusters()
	rep := e.Run(ds.Queries, Options{Mode: ClusterMajor, W: w, K: 10,
		Adaptive: adaptive.Params{StopPatience: 2, MinClusters: 3}})
	full := int64(ds.Queries.Rows * w)
	if rep.ClustersScanned >= full {
		t.Fatalf("ClustersScanned = %d, want < %d (no early termination happened)", rep.ClustersScanned, full)
	}
	if rep.ClustersScanned < int64(ds.Queries.Rows*3) {
		t.Fatalf("ClustersScanned = %d, below the MinClusters floor", rep.ClustersScanned)
	}
	for qi, rs := range rep.Results {
		if len(rs) != 10 {
			t.Fatalf("q%d: %d results", qi, len(rs))
		}
	}
}

// Escalation through the engine: Escalations and RerankTime are
// reported, and the per-batch report matches a per-query ivf run.
func TestAdaptiveEscalationReported(t *testing.T) {
	spec := dataset.SIFTLike(3000, 12, 1)
	spec.D = 32
	ds := dataset.Generate(spec)
	idx := ivf.Build(ds.Base, pq.L2, ivf.Config{
		NClusters: 25, M: 8, Ks: 16, CoarseIters: 6, PQIters: 6, Seed: 2, Rerank: true,
	})
	e := New(idx)
	ap := adaptive.Params{EscalateFactor: 4, Margin: 0.2}
	rep := e.Run(ds.Queries, Options{Mode: QueryAtATime, W: 10, K: 10, Adaptive: ap})
	if rep.Escalations < int64(10*ds.Queries.Rows) {
		t.Fatalf("Escalations = %d, want >= K per query", rep.Escalations)
	}
	if rep.RerankTime <= 0 {
		t.Fatalf("RerankTime = %v, want > 0", rep.RerankTime)
	}

	s := idx.NewSearcher()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		want := s.Search(nil, ds.Queries.Row(qi), ivf.SearchParams{W: 10, K: 10, Adaptive: ap}, nil)
		got := rep.Results[qi]
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q%d result %d: engine %+v vs ivf %+v", qi, i, got[i], want[i])
			}
		}
	}
}
