package pq

import (
	"fmt"
	"math/rand"
	"testing"

	"anna/internal/simd"
	"anna/internal/topk"
)

// TestScanADCDispatchBitExact runs the same list scan with SIMD enabled
// and disabled and requires identical selector contents — the dispatch
// seam itself must be invisible. List lengths straddle the 256-row block
// boundary and the 32/8-row kernel granularities, down to lists shorter
// than one kernel step (the padded-remainder path); M values cover the
// scalar sub-space tail (M > 64 or M%8 != 0 for 4-bit, M%8 != 0 for
// 8-bit) and the odd-M nibble remainder.
func TestScanADCDispatchBitExact(t *testing.T) {
	if !simd.Available() {
		t.Skip("no assembly on this build; both paths are already scalar")
	}
	rng := rand.New(rand.NewSource(31))
	for _, ks := range []int{16, 256} {
		for _, m := range []int{8, 9, 15, 64, 72} {
			for _, n := range []int{1, 16, 17, 31, 33, 100, 255, 256, 257, 700} {
				for _, hw := range []bool{false, true} {
					t.Run(fmt.Sprintf("Ks%d_M%d_n%d_hw%v", ks, m, n, hw), func(t *testing.T) {
						q := fakeQuantizer(m, 2, ks, rng)
						ids, packed := packRandomList(q, n, rng)
						l := NewLUT(q)
						for i := range l.Values {
							l.Values[i] = rng.Float32()*2 - 1
						}
						l.SyncPlanes()
						l.Bias = rng.Float32()
						nib := q.CodeBits() == 4

						on := topk.NewSelector(10)
						l.ScanADC(on, ids, packed, q.CodeBytes(), nib, hw)

						prev := simd.SetEnabled(false)
						off := topk.NewSelector(10)
						l.ScanADC(off, ids, packed, q.CodeBytes(), nib, hw)
						simd.SetEnabled(prev)

						a, b := on.Results(), off.Results()
						if len(a) != len(b) {
							t.Fatalf("result counts %d vs %d", len(a), len(b))
						}
						for i := range a {
							if a[i] != b[i] {
								t.Fatalf("rank %d: simd %+v scalar %+v", i, a[i], b[i])
							}
						}
					})
				}
			}
		}
	}
}

// rowScoreList builds an M=8, Ks=16 LUT and a packed list in which row
// i scores exactly scores[i] (integers 0..255, exact in float32):
// sub-space 0 contributes the low nibble, sub-space 1 sixteen times the
// high nibble, the other six nothing.
func rowScoreList(scores []int) (*LUT, []int64, []byte) {
	q := &Quantizer{D: 8, M: 8, Ks: 16, Dsub: 1}
	l := NewLUT(q)
	for k := 0; k < 16; k++ {
		l.Values[k] = float32(k)
		l.Values[16+k] = float32(16 * k)
	}
	l.SyncPlanes()
	ids := make([]int64, len(scores))
	packed := make([]byte, len(scores)*q.CodeBytes())
	for i, s := range scores {
		ids[i] = int64(i)
		packed[i*q.CodeBytes()] = byte(s) // low nibble sub-space 0, high nibble sub-space 1
	}
	return l, ids, packed
}

// TestScanADCMaskStaleThreshold drives the mask gate where its threshold
// is most out of date. The kernel gates a whole 256-row block against
// the threshold at block entry; with ascending scores every row beats
// that stale value AND raises the live one, so the Go side must re-check
// each survivor against the moving threshold (a row equal to the live
// minimum still reaches the selector, which settles the tie by ID).
// Descending and shuffled orders cover the mask actually pruning,
// plateaus the ties. Tombstones ride
// along: they must cost only the rows that pass the gate and change
// nothing else.
func TestScanADCMaskStaleThreshold(t *testing.T) {
	if !simd.Available() {
		t.Skip("no assembly on this build; both paths are already scalar")
	}
	const n = 256 + 40
	rng := rand.New(rand.NewSource(33))
	orders := map[string][]int{"ascending": make([]int, n), "descending": make([]int, n), "plateaus": make([]int, n), "shuffled": make([]int, n)}
	for i := 0; i < n; i++ {
		orders["ascending"][i] = i % 256
		orders["descending"][i] = 255 - i%256
		orders["plateaus"][i] = i / 3 % 256 // runs of equal scores: ties at the cut-off go to the smaller ID
		orders["shuffled"][i] = rng.Intn(256)
	}
	for name, scores := range orders {
		l, ids, packed := rowScoreList(scores)
		if name == "plateaus" {
			// Descending IDs: each repeat of the cut-off score carries a
			// smaller ID than the one retained, so no gate may drop it.
			for i := range ids {
				ids[i] = int64(n - 1 - i)
			}
		}
		dead := map[int64]struct{}{}
		for i := 0; i < n; i += 7 {
			dead[ids[i]] = struct{}{}
		}
		for _, k := range []int{1, 5, 64} {
			for _, skip := range []map[int64]struct{}{nil, dead} {
				on := topk.NewSelector(k)
				l.ScanADCSkip(on, ids, packed, 4, true, false, skip)

				prev := simd.SetEnabled(false)
				off := topk.NewSelector(k)
				l.ScanADCSkip(off, ids, packed, 4, true, false, skip)
				simd.SetEnabled(prev)

				// Filter-first reference: what a tombstone-free list
				// of the live rows alone would retain.
				ref := topk.NewSelector(k)
				for i, id := range ids {
					if _, gone := skip[id]; !gone {
						ref.Push(id, float32(scores[i]))
					}
				}
				a, b, c := on.Results(), off.Results(), ref.Results()
				if len(a) != len(b) || len(a) != len(c) {
					t.Fatalf("%s k=%d: result counts simd %d scalar %d reference %d", name, k, len(a), len(b), len(c))
				}
				for i := range a {
					if a[i] != b[i] || a[i] != c[i] {
						t.Fatalf("%s k=%d dead=%d rank %d: simd %+v scalar %+v reference %+v",
							name, k, len(skip), i, a[i], b[i], c[i])
					}
				}
			}
		}
	}
}

// TestScanADCZeroAlloc pins that the SIMD block scan keeps the
// allocation-free property of the scalar kernel.
func TestScanADCZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, ks := range []int{16, 256} {
		q := fakeQuantizer(32, 2, ks, rng)
		ids, packed := packRandomList(q, 400, rng)
		l := NewLUT(q)
		sel := topk.NewSelector(10)
		nib := q.CodeBits() == 4
		allocs := testing.AllocsPerRun(10, func() {
			sel.Reset()
			l.ScanADC(sel, ids, packed, q.CodeBytes(), nib, false)
		})
		if allocs != 0 {
			t.Fatalf("ks=%d: ScanADC allocates %v per call", ks, allocs)
		}
	}
}
