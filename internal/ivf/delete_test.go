package ivf

import (
	"bytes"
	"fmt"
	"testing"

	"anna/internal/pq"
	"anna/internal/simd"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

func TestDeleteHidesFromResults(t *testing.T) {
	idx, ds := buildSmall(t, pq.L2)
	q := ds.Base.Row(42)
	before := idx.Search(q, SearchParams{W: idx.NClusters(), K: 20})
	present := false
	for _, r := range before {
		if r.ID == 42 {
			present = true
		}
	}
	if !present {
		t.Fatalf("self-query did not surface 42 before delete: %+v", before[:5])
	}
	if n := idx.Delete(42); n != 1 {
		t.Fatalf("Delete returned %d", n)
	}
	if !idx.Deleted(42) || !idx.HasDeletions() {
		t.Fatal("tombstone not recorded")
	}
	after := idx.Search(q, SearchParams{W: idx.NClusters(), K: 20})
	for _, r := range after {
		if r.ID == 42 {
			t.Fatalf("deleted vector still returned: %+v", after)
		}
	}
	if idx.Live() != idx.NTotal-1 {
		t.Errorf("Live = %d", idx.Live())
	}
	// Duplicate and out-of-range deletes are ignored.
	if n := idx.Delete(42, -1, 1<<40); n != 0 {
		t.Errorf("bogus Delete returned %d", n)
	}
}

func TestCompactReclaimsAndPreservesResults(t *testing.T) {
	idx, ds := buildSmall(t, pq.L2)
	total := idx.NTotal
	idx.Delete(1, 2, 3, 500, 999)
	q := ds.Queries.Row(0)
	before := idx.Search(q, SearchParams{W: 8, K: 10})

	removed := idx.Compact()
	if removed != 5 {
		t.Fatalf("Compact removed %d, want 5", removed)
	}
	if idx.NTotal != total-5 || idx.DeletedCount() != 0 {
		t.Fatalf("NTotal=%d deleted=%d after compact", idx.NTotal, idx.DeletedCount())
	}
	after := idx.Search(q, SearchParams{W: 8, K: 10})
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("compact changed results at rank %d: %+v vs %+v", i, before[i], after[i])
		}
	}
	// Idempotent.
	if idx.Compact() != 0 {
		t.Error("second Compact removed entries")
	}
	// List storage is consistent.
	for c := range idx.Lists {
		if len(idx.Lists[c].Codes) != idx.Lists[c].Len()*idx.PQ.CodeBytes() {
			t.Fatalf("cluster %d storage inconsistent after compact", c)
		}
	}
}

func TestAddAfterCompactDoesNotReuseIDs(t *testing.T) {
	idx, ds := buildSmall(t, pq.L2)
	total := int64(idx.NTotal)
	idx.Delete(0, 1, 2)
	idx.Compact()

	extra := vecmath.NewMatrix(4, ds.D())
	for i := 0; i < 4; i++ {
		extra.SetRow(i, ds.Base.Row(100+i))
	}
	first := idx.Add(extra)
	if first != total {
		t.Fatalf("Add after Compact assigned %d, want %d (no reuse of live IDs)", first, total)
	}
	// No duplicate IDs anywhere.
	seen := map[int64]bool{}
	for c := range idx.Lists {
		for _, id := range idx.Lists[c].IDs {
			if seen[id] {
				t.Fatalf("duplicate ID %d after compact+add", id)
			}
			seen[id] = true
		}
	}
}

func TestCompactSurvivesSaveLoad(t *testing.T) {
	idx, ds := buildSmall(t, pq.L2)
	idx.Delete(5, 6, 7)
	idx.Compact()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// nextID reconstructed as maxID+1, so Add cannot collide.
	extra := vecmath.NewMatrix(1, ds.D())
	extra.SetRow(0, ds.Base.Row(9))
	first := got.Add(extra)
	if first != idx.nextID {
		t.Fatalf("loaded Add assigned %d, want %d", first, idx.nextID)
	}
}

func TestDeleteVisibleToAccelScan(t *testing.T) {
	// The tombstone filter also applies through ScanList with a fresh
	// selector (the path engine and simulator share).
	idx, ds := buildSmall(t, pq.L2)
	idx.Delete(int64(ds.Base.Rows - 1))
	res := idx.Search(ds.Base.Row(ds.Base.Rows-1), SearchParams{W: idx.NClusters(), K: 3})
	for _, r := range res {
		if r.ID == int64(ds.Base.Rows-1) {
			t.Fatal("tombstoned ID surfaced")
		}
	}
}

// TestTombstonesKeepKernelPath pins the tombstone contract of the fused
// scan: lists are scored through the same kernels whether or not the
// index has deletions, `deleted` is consulted only for threshold
// survivors, and the selector ends up bit-identical to the reference
// ScanList, which drops dead rows before scoring them. Small k keeps the
// threshold gate (and the kernel's survivor mask) live; both dispatch
// modes, code widths, metrics and rounding modes run.
func TestTombstonesKeepKernelPath(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		for _, ks := range []int{16, 256} {
			idx, ds := buildScanIndex(t, metric, ks)
			q := idx.PrepQuery(ds.Queries.Row(2))
			// Tombstone the query's best candidates (rows that pass
			// every gate) plus a spread of ordinary rows.
			for _, r := range idx.Search(ds.Queries.Row(2), SearchParams{W: idx.NClusters(), K: 5}) {
				idx.Delete(r.ID)
			}
			for id := int64(0); id < int64(idx.NTotal); id += 9 {
				idx.Delete(id)
			}
			lut := pq.NewLUT(idx.PQ)
			scratch := make([]float32, idx.D)
			codeBuf := make([]byte, idx.PQ.M)
			for _, hw := range []bool{false, true} {
				for _, simdOn := range []bool{false, true} {
					prev := simd.SetEnabled(simdOn)
					fused, ref := topk.NewSelector(7), topk.NewSelector(7)
					for c := 0; c < idx.NClusters(); c++ {
						idx.BuildLUT(lut, q, c, scratch, hw)
						idx.ScanListADC(fused, lut, c, hw)
						idx.ScanList(ref, lut, c, codeBuf, hw)
					}
					simd.SetEnabled(prev)
					label := fmt.Sprintf("%v Ks=%d hw=%v simd=%v", metric, ks, hw, simdOn)
					requireIdentical(t, label, fused.Results(), ref.Results())
					for _, r := range fused.Results() {
						if idx.Deleted(r.ID) {
							t.Fatalf("%s: tombstoned id %d returned", label, r.ID)
						}
					}
				}
			}
		}
	}
}
