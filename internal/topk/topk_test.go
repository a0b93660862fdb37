package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectorBasic(t *testing.T) {
	s := NewSelector(3)
	if _, ok := s.Threshold(); ok {
		t.Error("Threshold ok before full")
	}
	for i, sc := range []float32{5, 1, 3, 2, 4} {
		s.Push(int64(i), sc)
	}
	got := s.Results()
	want := []Result{{0, 5}, {4, 4}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d results", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Results[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if th, ok := s.Threshold(); !ok || th != 3 {
		t.Errorf("Threshold = %v,%v want 3,true", th, ok)
	}
}

func TestSelectorFewerThanK(t *testing.T) {
	s := NewSelector(10)
	s.Push(1, 2)
	s.Push(2, 1)
	got := s.Results()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Errorf("Results = %+v", got)
	}
}

// A tie with the worst retained score is settled by ID, not by arrival.
func TestSelectorTieAtThreshold(t *testing.T) {
	s := NewSelector(1)
	s.Push(4, 5)
	if s.Push(6, 5) {
		t.Error("equal score with a larger ID displaced the retained entry")
	}
	if !s.Push(2, 5) {
		t.Error("equal score with a smaller ID rejected")
	}
	if s.Push(2, 5) {
		t.Error("the retained entry displaced itself")
	}
	if got := s.Results()[0].ID; got != 2 {
		t.Errorf("retained ID = %d, want 2", got)
	}
	if !s.Push(3, 6) {
		t.Error("larger score rejected")
	}
}

// The retained set is a function of the candidates alone: any arrival
// order — the engine's workers feed one query's selector cluster by
// cluster in whatever order they get there — gives the same results,
// with runs of equal scores straddling the cut-off.
func TestSelectorOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		k := 1 + rng.Intn(n)
		cands := make([]Result, n)
		for i := range cands {
			cands[i] = Result{int64(i), float32(rng.Intn(4))} // heavy ties
		}
		want := append([]Result(nil), cands...)
		SortDesc(want)
		want = want[:k]
		for perm := 0; perm < 4; perm++ {
			rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			s := NewSelector(k)
			for _, c := range cands {
				s.Push(c.ID, c.Score)
			}
			got := s.Results()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d rank %d: %+v, want %+v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelectorPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewSelector(0)
}

func TestSelectorTieBreakByID(t *testing.T) {
	s := NewSelector(3)
	s.Push(9, 1)
	s.Push(3, 1)
	s.Push(7, 1)
	got := s.Results()
	if got[0].ID != 3 || got[1].ID != 7 || got[2].ID != 9 {
		t.Errorf("tie order = %+v", got)
	}
}

// Property: Selector(k) over any stream returns exactly the k largest
// scores, matching a full sort.
func TestSelectorMatchesSort(t *testing.T) {
	f := func(scores []float32, kRaw uint8) bool {
		if len(scores) == 0 {
			return true
		}
		k := int(kRaw)%len(scores) + 1
		s := NewSelector(k)
		ref := make([]Result, len(scores))
		for i, sc := range scores {
			s.Push(int64(i), sc)
			ref[i] = Result{int64(i), sc}
		}
		SortDesc(ref)
		got := s.Results()
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i].Score != ref[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	a := []Result{{1, 10}, {2, 8}}
	b := []Result{{3, 9}, {4, 7}}
	got := Merge(3, a, b)
	want := []Result{{1, 10}, {3, 9}, {2, 8}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Merging per-partition top-k lists must equal the top-k over the union,
// the invariant intra-query SCM parallelism relies on.
func TestMergeEqualsGlobalTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k, parts = 500, 20, 4
	all := make([]Result, n)
	lists := make([][]Result, parts)
	sels := make([]*Selector, parts)
	for p := range sels {
		sels[p] = NewSelector(k)
	}
	for i := 0; i < n; i++ {
		r := Result{int64(i), rng.Float32()}
		all[i] = r
		sels[i%parts].Push(r.ID, r.Score)
	}
	for p := range sels {
		lists[p] = sels[p].Results()
	}
	got := Merge(k, lists...)
	SortDesc(all)
	for i := 0; i < k; i++ {
		if got[i] != all[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], all[i])
		}
	}
}

func TestSelectorReset(t *testing.T) {
	s := NewSelector(2)
	s.Push(1, 1)
	s.Reset()
	if s.Len() != 0 {
		t.Error("Reset did not empty")
	}
	s.Push(2, 2)
	if got := s.Results(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("post-Reset Results = %+v", got)
	}
}

func TestPHeapStats(t *testing.T) {
	p := NewPHeap(2)
	accepted := 0
	for i, sc := range []float32{1, 2, 3, 0} {
		if p.Offer(int64(i), sc) {
			accepted++
		}
	}
	if p.Offered() != 4 {
		t.Errorf("Offered = %d", p.Offered())
	}
	if p.Accepted() != int64(accepted) || accepted != 3 {
		t.Errorf("Accepted = %d (counted %d)", p.Accepted(), accepted)
	}
	got := p.Flush()
	if len(got) != 2 || got[0].Score != 3 || got[1].Score != 2 {
		t.Errorf("Flush = %+v", got)
	}
	if p.Len() != 0 {
		t.Error("Flush did not empty the unit")
	}
	p.ResetStats()
	if p.Offered() != 0 || p.Accepted() != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestPHeapInitResumes(t *testing.T) {
	// Save/restore across clusters must give the same answer as one
	// uninterrupted pass.
	rng := rand.New(rand.NewSource(11))
	const n, k = 300, 10
	scores := make([]float32, n)
	for i := range scores {
		scores[i] = rng.Float32()
	}

	whole := NewPHeap(k)
	for i, sc := range scores {
		whole.Offer(int64(i), sc)
	}

	split := NewPHeap(k)
	for i := 0; i < n/2; i++ {
		split.Offer(int64(i), scores[i])
	}
	state := split.Flush()
	if FlushBytes(len(state)) != int64(len(state))*EntryBytes {
		t.Errorf("FlushBytes inconsistent")
	}
	split.Init(state)
	for i := n / 2; i < n; i++ {
		split.Offer(int64(i), scores[i])
	}

	a, b := whole.Flush(), split.Flush()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resume mismatch at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPHeapInitPanicsNonEmpty(t *testing.T) {
	p := NewPHeap(2)
	p.Offer(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Init([]Result{{2, 2}})
}

func TestSaveRestoreBytes(t *testing.T) {
	// Section IV-B: 2k·N_SCM entries of 5 B each; k=1000, 16 SCMs -> 160 kB.
	if got := SaveRestoreBytes(1000, 16); got != 160000 {
		t.Errorf("SaveRestoreBytes(1000,16) = %d, want 160000", got)
	}
}

func TestSortDescStable(t *testing.T) {
	r := []Result{{5, 1}, {1, 3}, {4, 2}, {2, 3}}
	SortDesc(r)
	want := []Result{{1, 3}, {2, 3}, {4, 2}, {5, 1}}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("SortDesc[%d] = %+v, want %+v", i, r[i], want[i])
		}
	}
	if !sort.SliceIsSorted(r, func(i, j int) bool {
		if r[i].Score != r[j].Score {
			return r[i].Score > r[j].Score
		}
		return r[i].ID < r[j].ID
	}) {
		t.Error("not sorted")
	}
}

func BenchmarkSelectorPush(b *testing.B) {
	s := NewSelector(1000)
	rng := rand.New(rand.NewSource(1))
	scores := make([]float32, 4096)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(int64(i), scores[i&4095])
	}
}
