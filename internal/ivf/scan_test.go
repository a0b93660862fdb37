package ivf

import (
	"fmt"
	"testing"

	"anna/internal/dataset"
	"anna/internal/pq"
	"anna/internal/topk"
)

func buildScanIndex(t testing.TB, metric pq.Metric, ks int) (*Index, *dataset.Dataset) {
	t.Helper()
	spec := dataset.SIFTLike(1200, 8, 7)
	spec.D = 32
	spec.Metric = metric
	ds := dataset.Generate(spec)
	idx := Build(ds.Base, metric, Config{
		NClusters: 12, M: 8, Ks: ks, CoarseIters: 4, PQIters: 4, Seed: 5,
	})
	return idx, ds
}

func requireIdentical(t *testing.T, label string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: fused %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestFusedSearchBitExact proves the tentpole invariant: the fused path
// (batched cluster selection + packed-code scan + threshold-gated push)
// returns bit-identical results to the unfused reference across
// {L2, IP} x {Ks=16, Ks=256} x {HWF16 on/off} x {with/without deletions}.
func TestFusedSearchBitExact(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		for _, ks := range []int{16, 256} {
			idx, ds := buildScanIndex(t, metric, ks)
			check := func(t *testing.T, stage string) {
				for _, hw := range []bool{false, true} {
					for _, w := range []int{3, idx.NClusters()} {
						for qi := 0; qi < ds.Queries.Rows; qi++ {
							p := SearchParams{W: w, K: 10, HWF16: hw}
							got := idx.Search(ds.Queries.Row(qi), p)
							want := idx.SearchReference(ds.Queries.Row(qi), p)
							requireIdentical(t,
								fmt.Sprintf("%s hw=%v w=%d q%d", stage, hw, w, qi),
								got, want)
						}
					}
				}
			}
			t.Run(fmt.Sprintf("%v_Ks%d", metric, ks), func(t *testing.T) {
				check(t, "live")
				// Tombstone a spread of IDs (including some certain to be
				// near the top for query 0) and re-verify the fused
				// deletion path.
				top := idx.Search(ds.Queries.Row(0), SearchParams{W: idx.NClusters(), K: 5})
				dead := []int64{0, 7, 500, 1100}
				for _, r := range top {
					dead = append(dead, r.ID)
				}
				if idx.Delete(dead...) == 0 {
					t.Fatal("no deletions applied")
				}
				check(t, "deleted")
			})
		}
	}
}

// TestScanListADCMatchesScanList compares the fused list scan against the
// reference at the single-cluster level, where every pushed score is
// visible (not just the final top-k).
func TestScanListADCMatchesScanList(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		for _, ks := range []int{16, 256} {
			idx, ds := buildScanIndex(t, metric, ks)
			q := idx.PrepQuery(ds.Queries.Row(0))
			lut := pq.NewLUT(idx.PQ)
			scratch := make([]float32, idx.D)
			codeBuf := make([]byte, idx.PQ.M)
			for _, hw := range []bool{false, true} {
				for c := 0; c < idx.NClusters(); c++ {
					idx.BuildLUT(lut, q, c, scratch, hw)
					n := idx.Lists[c].Len()
					if n == 0 {
						continue
					}
					fused := topk.NewSelector(n + 1)
					idx.ScanListADC(fused, lut, c, hw)
					ref := topk.NewSelector(n + 1)
					idx.ScanList(ref, lut, c, codeBuf, hw)
					requireIdentical(t,
						fmt.Sprintf("%v Ks=%d hw=%v cluster %d", metric, ks, hw, c),
						fused.Results(), ref.Results())
				}
			}
		}
	}
}

// TestThresholdGatePruning is the Selector.Threshold property test: for
// any k, the threshold-gated scan retains exactly what an unguarded scan
// pushing every candidate into the same k-selector retains, and its
// scores equal the truncated full ranking rank-by-rank (IDs at the
// boundary may differ only between equal scores, where a bounded
// selector keeps the first-scanned tied candidate).
func TestThresholdGatePruning(t *testing.T) {
	idx, ds := buildScanIndex(t, pq.L2, 16)
	q := idx.PrepQuery(ds.Queries.Row(1))
	lut := pq.NewLUT(idx.PQ)
	scratch := make([]float32, idx.D)
	codeBuf := make([]byte, idx.PQ.M)
	for _, k := range []int{1, 3, 17, 100} {
		gated := topk.NewSelector(k)
		unguarded := topk.NewSelector(k)
		all := topk.NewSelector(idx.NTotal)
		for c := 0; c < idx.NClusters(); c++ {
			idx.BuildLUT(lut, q, c, scratch, false)
			idx.ScanListADC(gated, lut, c, false)
			idx.ScanList(unguarded, lut, c, codeBuf, false)
			idx.ScanListADC(all, lut, c, false)
		}
		requireIdentical(t, fmt.Sprintf("k=%d vs unguarded", k),
			gated.Results(), unguarded.Results())
		full := all.Results()
		if k < len(full) {
			full = full[:k]
		}
		got := gated.Results()
		if len(got) != len(full) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(full))
		}
		for i := range got {
			if got[i].Score != full[i].Score {
				t.Fatalf("k=%d rank %d: score %v, full ranking has %v",
					k, i, got[i].Score, full[i].Score)
			}
		}
	}
}

// TestSelectClustersBatchMatchesPerRow pins the batched cluster filter to
// the per-row scoring loop it replaced.
func TestSelectClustersBatchMatchesPerRow(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		idx, ds := buildScanIndex(t, metric, 16)
		cs := idx.NewClusterSelection(5)
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			q := ds.Queries.Row(qi)
			// Per-row reference: old SelectClusters body.
			sel := topk.NewSelector(5)
			for c := 0; c < idx.NClusters(); c++ {
				sel.Push(int64(c), idx.CentroidScore(q, c))
			}
			want := sel.Results()
			idx.SelectClustersBatch(cs, q)
			if len(cs.Clusters) != len(want) {
				t.Fatalf("%v q%d: %d clusters, want %d", metric, qi, len(cs.Clusters), len(want))
			}
			for i, r := range want {
				if cs.Clusters[i] != int(r.ID) || cs.Scores[i] != r.Score {
					t.Fatalf("%v q%d rank %d: (%d, %v) want (%d, %v)", metric, qi, i,
						cs.Clusters[i], cs.Scores[i], r.ID, r.Score)
				}
			}
		}
	}
}

// TestSearcherReuseAcrossParams checks that one Searcher survives W/K
// changes and rotation, still matching the reference.
func TestSearcherReuseAcrossParams(t *testing.T) {
	spec := dataset.SIFTLike(800, 4, 3)
	spec.D = 32
	ds := dataset.Generate(spec)
	idx := Build(ds.Base, pq.L2, Config{
		NClusters: 10, M: 8, Ks: 16, CoarseIters: 4, PQIters: 4, Seed: 2, Rotate: true,
	})
	s := idx.NewSearcher()
	for _, p := range []SearchParams{
		{W: 2, K: 5}, {W: 8, K: 20}, {W: 2, K: 5, HWF16: true}, {W: 100, K: 3},
	} {
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			got := s.Search(nil, idx.PrepQuery(ds.Queries.Row(qi)), p, nil)
			want := idx.SearchReference(ds.Queries.Row(qi), p)
			requireIdentical(t, fmt.Sprintf("p=%+v q%d", p, qi), got, want)
		}
	}
}
