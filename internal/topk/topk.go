// Package topk implements top-k selection of (id, score) pairs.
//
// Two implementations are provided:
//
//   - Selector: a software bounded min-heap, used by the CPU reference
//     ANNS engine (the role Faiss's HeapArray / ScaNN's top-N plays).
//   - PHeap: a functional + timing model of the P-heap hardware priority
//     queue [Bhagwan & Lin, INFOCOM 2000] used by ANNA's top-k selection
//     units, including the double-buffered flush/init-to-memory behaviour
//     the Section-IV batch optimization relies on.
//
// Scores follow the paper's convention: larger is more similar (L2
// distances are negated before insertion), so both structures keep the k
// LARGEST scores seen.
package topk

// Result is a scored candidate.
type Result struct {
	ID    int64
	Score float32
}

// Selector keeps the k best results using a bounded heap rooted at the
// worst retained one. "Best" is a total order — larger score first,
// smaller ID on equal scores (see before) — so the retained set depends
// only on which candidates were pushed, never on the order they arrived
// in: workers may feed one selector in any interleaving.
type Selector struct {
	k    int
	heap []Result // heap[0] is the worst retained result
}

// NewSelector returns a Selector retaining the top k scores. k must be > 0.
func NewSelector(k int) *Selector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Selector{k: k, heap: make([]Result, 0, k)}
}

// Reuse returns an empty Selector retaining the top k: s itself, reset,
// when it already has that capacity, a new one otherwise (s may be nil).
// It is how pooled scratch follows a change of k between searches.
func Reuse(s *Selector, k int) *Selector {
	if s == nil || s.k != k {
		return NewSelector(k)
	}
	s.Reset()
	return s
}

// K returns the selector's capacity.
func (s *Selector) K() int { return s.k }

// Len returns the number of results currently retained.
func (s *Selector) Len() int { return len(s.heap) }

// Threshold returns the smallest retained score, or -Inf semantics via
// ok=false while fewer than k results have been pushed. When full, a
// candidate with Score < Threshold cannot enter the selector; one with
// Score == Threshold enters only if its ID is smaller than that of the
// worst retained result, which Push decides.
func (s *Selector) Threshold() (score float32, ok bool) {
	if len(s.heap) < s.k {
		return 0, false
	}
	return s.heap[0].Score, true
}

// Push offers a candidate. It returns true if the candidate was retained.
func (s *Selector) Push(id int64, score float32) bool {
	if len(s.heap) < s.k {
		s.heap = append(s.heap, Result{id, score})
		s.up(len(s.heap) - 1)
		return true
	}
	r := Result{id, score}
	if !before(r, s.heap[0]) {
		return false
	}
	s.heap[0] = r
	s.down(0)
	return true
}

// up and down sift heap[i] into place through a moving hole: each level
// costs one store, not a swap.
func (s *Selector) up(i int) {
	h := s.heap
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[p], v) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
}

func (s *Selector) down(i int) {
	h := s.heap
	n := len(h)
	v := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[c], h[r]) {
			c = r // the worse child
		}
		if !before(v, h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// Results returns the retained results sorted by descending score
// (ties broken by ascending ID for determinism). The selector remains
// usable afterwards.
func (s *Selector) Results() []Result {
	return s.ResultsAppend(make([]Result, 0, len(s.heap)))
}

// ResultsAppend appends the retained results to dst in descending score
// order (ties broken by ascending ID) and returns the extended slice. It
// allocates only when dst lacks capacity, which lets callers drain many
// selectors into slots of one preallocated arena. The selector remains
// usable afterwards.
func (s *Selector) ResultsAppend(dst []Result) []Result {
	start := len(dst)
	dst = append(dst, s.heap...)
	SortDesc(dst[start:])
	return dst
}

// Reset empties the selector, keeping its capacity.
func (s *Selector) Reset() { s.heap = s.heap[:0] }

// SortDesc sorts results by descending score, ascending ID on ties. It
// is hand-rolled (quicksort + insertion sort) rather than sort.Slice so
// that draining a selector allocates nothing — sort.Slice's closure and
// reflect-based swapper cost ~3 heap allocations per call, which
// dominated the engine's steady-state allocation profile.
func SortDesc(r []Result) {
	for len(r) > 12 {
		// Median-of-three pivot to first position.
		mid, last := len(r)/2, len(r)-1
		if before(r[mid], r[0]) {
			r[mid], r[0] = r[0], r[mid]
		}
		if before(r[last], r[0]) {
			r[last], r[0] = r[0], r[last]
		}
		if before(r[last], r[mid]) {
			r[last], r[mid] = r[mid], r[last]
		}
		pivot := r[mid]
		i, j := 0, last
		for i <= j {
			for before(r[i], pivot) {
				i++
			}
			for before(pivot, r[j]) {
				j--
			}
			if i <= j {
				r[i], r[j] = r[j], r[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, iterate on the larger.
		if j+1 < len(r)-i {
			SortDesc(r[:j+1])
			r = r[i:]
		} else {
			SortDesc(r[i:])
			r = r[:j+1]
		}
	}
	// Insertion sort for small runs.
	for i := 1; i < len(r); i++ {
		v := r[i]
		j := i - 1
		for j >= 0 && before(v, r[j]) {
			r[j+1] = r[j]
			j--
		}
		r[j+1] = v
	}
}

// before reports whether a orders strictly ahead of b: larger score
// first, smaller ID on score ties.
func before(a, b Result) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.ID < b.ID)
}

// Merge returns the top-k of the concatenation of several result lists.
// This is the reduction used when intra-query parallelism spreads one
// query across multiple SCMs and their per-SCM top-k lists are combined.
func Merge(k int, lists ...[]Result) []Result {
	s := NewSelector(k)
	for _, l := range lists {
		for _, r := range l {
			s.Push(r.ID, r.Score)
		}
	}
	return s.Results()
}
