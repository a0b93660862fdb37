package ivf

import (
	"fmt"

	"anna/internal/pq"
	"anna/internal/sq"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// Re-ranking ("re-rank with source coding", the paper's SIFT1B reference
// [23]): the PQ stage is approximate, so its candidate ORDER near the
// top can be wrong even when the right vectors are present in a larger
// candidate set. Retaining an 8-bit scalar-quantized copy of each vector
// lets the index re-score a shortlist almost exactly and fix the order,
// trading D bytes/vector of memory for recall at small k. On ANNA this
// refinement runs on the host over the returned top-k candidates; the
// accelerator's output is exactly the shortlist this code consumes.

// EnableRerank attaches an SQ8 store built from data (index-space, i.e.
// pre-rotated data must NOT be passed here — Build handles that).
func (x *Index) enableRerank(data *vecmath.Matrix) {
	q := sq.Train(data)
	x.SQ = sq.NewStore(q, data)
}

// CanRerank reports whether the index retains reconstructions.
func (x *Index) CanRerank() bool { return x.SQ != nil }

// SearchRerank runs the PQ search for p.K*factor candidates and
// re-scores them against the SQ8 reconstructions, returning the top p.K
// in refined order. factor < 1 is treated as 1 (plain re-scoring of the
// top-K). It panics if the index was built without rerank storage.
func (x *Index) SearchRerank(q []float32, p SearchParams, factor int) []topk.Result {
	if x.SQ == nil {
		panic("ivf: index built without rerank storage (Config.Rerank)")
	}
	if factor < 1 {
		factor = 1
	}
	wide := p
	wide.K = p.K * factor
	cands := x.Search(q, wide)

	sel := topk.NewSelector(x.ClampK(p.K))
	x.rescore(sel, x.PrepQuery(q), cands, make([]float32, x.D))
	return sel.Results()
}

// rescore offers every candidate to sel under its float32 score against
// the SQ8 reconstruction of its vector (q in index space, dec a D-long
// decode buffer). It is the one re-scoring loop: SearchRerank runs it
// over a whole wide candidate list, Searcher.Search over the escalation
// band.
func (x *Index) rescore(sel *topk.Selector, q []float32, cands []topk.Result, dec []float32) {
	for _, c := range cands {
		x.SQ.Decode(dec, int(c.ID))
		var s float32
		if x.Metric == pq.InnerProduct {
			s = vecmath.Dot(q, dec)
		} else {
			s = -vecmath.L2Sq(q, dec)
		}
		sel.Push(c.ID, s)
	}
}

// appendRerank extends the SQ store for Add (data already in index
// space). It panics on ID discontinuity, which would corrupt addressing.
func (x *Index) appendRerank(data *vecmath.Matrix, firstID int64) {
	if x.SQ == nil {
		return
	}
	if int64(x.SQ.N) != firstID {
		panic(fmt.Sprintf("ivf: rerank store has %d vectors, expected %d", x.SQ.N, firstID))
	}
	x.SQ.Append(data)
}
