//go:build !race

// Not under -race: there sync.Pool drops a share of its Puts, so a pooled
// Searcher is rebuilt at random and the count is not a constant.

package ivf

import "testing"

// Index.Search on a rotated index allocates its result slice and nothing
// else: the rotated query lives in the pooled Searcher, like every other
// per-query buffer.
func TestRotatedSearchAllocs(t *testing.T) {
	idx, ds := buildRotated(t)
	q, p := ds.Queries.Row(0), SearchParams{W: 8, K: 10}
	idx.Search(q, p) // size the pooled Searcher's buffers
	if n := testing.AllocsPerRun(100, func() { idx.Search(q, p) }); n > 1 {
		t.Errorf("%.1f allocations per rotated search, want 1 (the results)", n)
	}
}
