package ivf

import (
	"fmt"
	"testing"

	"anna/internal/adaptive"
	"anna/internal/exact"
	"anna/internal/pq"
	"anna/internal/recall"
	"anna/internal/topk"
)

// The deterministic pin of the recall contract's base case: with the zero
// policy — and separately with termination enabled but given infinite
// patience — Searcher.Search must be bit-identical to the reference
// fixed-W scan and do exactly W clusters of work, for both metrics and
// both rounding modes.
func TestAdaptiveDisabledBitIdentical(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		for _, hw := range []bool{false, true} {
			idx, ds := buildSmall(t, metric) // no rotation: index space == raw query
			var scanned []int64
			for _, ap := range []adaptive.Params{
				{}, // disabled
				{StopPatience: idx.NClusters() + 1, MinClusters: 1}, // infinite patience
			} {
				name := fmt.Sprintf("patience=%d", ap.StopPatience)
				p := SearchParams{W: 10, K: 10, HWF16: hw, Adaptive: ap}
				s := idx.NewSearcher()
				var st ScanStats
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					q := ds.Queries.Row(qi)
					want := idx.SearchReference(q, p)
					got := s.Search(nil, q, p, &st)
					requireIdentical(t, fmt.Sprintf("%v/%s hw=%v q%d", metric, name, hw, qi), got, want)
				}
				if want := int64(p.W * ds.Queries.Rows); st.Clusters != want {
					t.Fatalf("%v/%s hw=%v: %d clusters scanned, want %d", metric, name, hw, st.Clusters, want)
				}
				scanned = append(scanned, st.Scanned)
			}
			if scanned[0] != scanned[1] {
				t.Fatalf("%v hw=%v: scanned vectors diverged between the policies (%d vs %d)", metric, hw, scanned[0], scanned[1])
			}
		}
	}
}

// withPolicy returns p carrying the effort policy ap.
func withPolicy(p SearchParams, ap adaptive.Params) SearchParams {
	p.Adaptive = ap
	return p
}

// Early termination must actually cut work: on clustered data with a
// small patience the mean clusters scanned stays well under W, and
// recall against the fixed scan stays high.
func TestAdaptiveTerminationCutsClustersScanned(t *testing.T) {
	idx, ds := buildSmall(t, pq.L2)
	w := idx.NClusters() // probe everything, let termination decide
	p := SearchParams{W: w, K: 10}
	ap := adaptive.Params{StopPatience: 3, MinClusters: 4}

	s := idx.NewSearcher()
	var st ScanStats
	adaptRes := make([][]topk.Result, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		adaptRes[qi] = s.Search(nil, ds.Queries.Row(qi), withPolicy(p, ap), &st)
	}
	mean := float64(st.Clusters) / float64(ds.Queries.Rows)
	if mean >= float64(w) {
		t.Fatalf("mean clusters scanned %.1f did not drop below W=%d", mean, w)
	}
	if st.Escalated != 0 {
		t.Fatalf("Escalated = %d without escalation enabled", st.Escalated)
	}

	gt := exact.New(pq.L2, ds.Base).GroundTruth(ds.Queries, 10)
	fixedRes := make([][]topk.Result, ds.Queries.Rows)
	fs := idx.NewSearcher()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		fixedRes[qi] = fs.Search(nil, ds.Queries.Row(qi), p, nil)
	}
	ra := recall.Mean(10, 10, gt, adaptRes)
	rf := recall.Mean(10, 10, gt, fixedRes)
	if ra < rf-0.1 {
		t.Fatalf("terminated recall %.3f fell more than 10pts below fixed %.3f", ra, rf)
	}
	t.Logf("mean clusters %.1f/%d, recall %.3f vs fixed %.3f", mean, w, ra, rf)
}

// Escalation must improve recall over the plain PQ ordering at the same
// W (it corrects PQ misordering inside the band), and with a band wide
// enough to cover every wide candidate it must match SearchRerank
// exactly — same candidates, same float32 re-scoring.
func TestAdaptiveEscalationMatchesRerank(t *testing.T) {
	idx, ds := buildRerank(t, false) // no rotation: prepped == raw query
	p := SearchParams{W: 10, K: 10}
	const factor = 8

	gt := exact.New(pq.L2, ds.Base).GroundTruth(ds.Queries, 10)
	s := idx.NewSearcher()
	var st ScanStats
	plain := make([][]topk.Result, ds.Queries.Rows)
	escal := make([][]topk.Result, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		plain[qi] = s.Search(nil, q, p, nil)
		escal[qi] = s.Search(nil, q, withPolicy(p, adaptive.Params{EscalateFactor: factor, Margin: 1e9}), &st)

		want := idx.SearchRerank(q, p, factor)
		if len(escal[qi]) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(escal[qi]), len(want))
		}
		for i := range want {
			if escal[qi][i] != want[i] {
				t.Fatalf("q%d result %d: escalation %+v vs SearchRerank %+v", qi, i, escal[qi][i], want[i])
			}
		}
	}
	if st.Escalated == 0 {
		t.Fatal("no candidates escalated")
	}
	rp := recall.Mean(10, 10, gt, plain)
	re := recall.Mean(10, 10, gt, escal)
	if re <= rp {
		t.Errorf("escalated recall %.3f not above plain %.3f", re, rp)
	}
}

// A narrow band escalates fewer candidates than the full wide set while
// still always covering the top K.
func TestAdaptiveMarginBoundsEscalation(t *testing.T) {
	idx, ds := buildRerank(t, false)
	p := SearchParams{W: 10, K: 10}
	s := idx.NewSearcher()
	var narrow, wide ScanStats
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		s.Search(nil, q, withPolicy(p, adaptive.Params{EscalateFactor: 8, Margin: 0.05}), &narrow)
		s.Search(nil, q, withPolicy(p, adaptive.Params{EscalateFactor: 8, Margin: 1e9}), &wide)
	}
	if narrow.Escalated < int64(p.K*ds.Queries.Rows) {
		t.Fatalf("narrow band escalated %d < K per query", narrow.Escalated)
	}
	if narrow.Escalated >= wide.Escalated {
		t.Fatalf("narrow band escalated %d, not below full band %d", narrow.Escalated, wide.Escalated)
	}
}

// Tombstoned IDs must never resurface through the escalation band: the
// band is drawn from the tombstone-gated scan, never from the SQ store.
func TestAdaptiveEscalationRespectsTombstones(t *testing.T) {
	idx, ds := buildRerank(t, false)
	p := SearchParams{W: idx.NClusters(), K: 10}
	ap := adaptive.Params{StopPatience: 3, MinClusters: 4, EscalateFactor: 8, Margin: 0.5}
	s := idx.NewSearcher()
	q := ds.Queries.Row(0)

	before := s.Search(nil, q, withPolicy(p, ap), nil)
	dead := make(map[int64]bool)
	for _, r := range before[:5] {
		dead[r.ID] = true
		idx.Delete(r.ID)
	}
	after := s.Search(nil, q, withPolicy(p, ap), nil)
	if len(after) == 0 {
		t.Fatal("no results after deletes")
	}
	for _, r := range after {
		if dead[r.ID] {
			t.Fatalf("deleted ID %d resurfaced through escalation", r.ID)
		}
	}
}

// Escalation with no SQ8 store degrades to the plain PQ ordering
// instead of panicking (the serving layer may enable escalation on an
// index loaded without rerank storage).
func TestAdaptiveEscalationWithoutStoreDegrades(t *testing.T) {
	idx, ds := buildSmall(t, pq.L2)
	p := SearchParams{W: 10, K: 10}
	s := idx.NewSearcher()
	q := ds.Queries.Row(0)
	got := s.Search(nil, q, withPolicy(p, adaptive.Params{EscalateFactor: 4, Margin: 0.2}), nil)
	want := idx.NewSearcher().Search(nil, q, p, nil)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
