package ivf

// Scan-stage benchmarks: LUT construction and the list scan at the
// shapes the repository benchmark runs (D=64, M=32, Ks=16, W=32 and a
// 100-deep selector, the SQ8 escalation band). `cmd/benchjson -suite
// engine` records them in BENCH_engine.json. They are interleaved
// A/Bs: each reports the assembly dispatch as ns/op and the scalar
// dispatch of the same tree, measured in alternating rounds of the same
// process, as scalar-ns/op.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"anna/internal/dataset"
	"anna/internal/pq"
	"anna/internal/simd"
	"anna/internal/topk"
)

// benchAB times op under scalar and assembly dispatch in alternating
// rounds (the side that goes first alternates too) and reports the
// per-side medians: ns/op is the assembly side, scalar-ns/op the scalar
// side. Machine drift and cache state hit both sides alike, which a
// recorded "before" cannot offer. On a scalar-dispatch run (noasm
// build, ANNA_NOSIMD, no AVX2) there is only one side to time.
func benchAB(b *testing.B, op func()) {
	if !simd.Enabled() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		return
	}
	defer simd.SetEnabled(true)
	ns := [2][]float64{make([]float64, 0, b.N), make([]float64, 0, b.N)} // [scalar, asm]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2; j++ {
			side := (i + j) & 1
			simd.SetEnabled(side == 1)
			t0 := time.Now()
			op()
			ns[side] = append(ns[side], float64(time.Since(t0)))
		}
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	b.ReportMetric(median(ns[1]), "ns/op")
	b.ReportMetric(median(ns[0]), "scalar-ns/op")
}

func buildBenchIndex(b *testing.B, n, d, nClusters, m, ks int) (*Index, *dataset.Dataset) {
	b.Helper()
	spec := dataset.SIFTLike(n, 16, 1)
	spec.D = d
	ds := dataset.Generate(spec)
	return Build(ds.Base, pq.L2, Config{
		NClusters: nClusters, M: m, Ks: ks, CoarseIters: 4, PQIters: 4, MaxTrain: 4000, Seed: 1,
	}), ds
}

// BenchmarkBuildLUT_L2 is search step 2 for one query: W=32 residual
// L2 table sets, at the paper's 4-bit and 8-bit layouts.
func BenchmarkBuildLUT_L2(b *testing.B) {
	for _, c := range []struct{ m, ks, d int }{{32, 16, 64}, {64, 256, 128}} {
		b.Run(fmt.Sprintf("M%d_Ks%d_D%d", c.m, c.ks, c.d), func(b *testing.B) {
			idx, ds := buildBenchIndex(b, 4000, c.d, 32, c.m, c.ks)
			q := idx.PrepQuery(ds.Queries.Row(0))
			lut, scratch := pq.NewLUT(idx.PQ), make([]float32, idx.D)
			benchAB(b, func() {
				for cl := 0; cl < idx.NClusters(); cl++ {
					idx.BuildLUT(lut, q, cl, scratch, false)
				}
			})
		})
	}
}

// benchScanLists is search step 3 for one query: its W=32 nearest
// lists (~310 rows each) into one k=100 selector, tables prebuilt.
func benchScanLists(b *testing.B, tombstones int) {
	const w, k = 32, 100
	idx, ds := buildBenchIndex(b, 20000, 64, 64, 32, 16)
	for id := 0; id < tombstones; id++ {
		idx.Delete(int64(id))
	}
	q := idx.PrepQuery(ds.Queries.Row(0))
	clusters := idx.SelectClusters(q, w)
	luts := make([]*pq.LUT, w)
	rows := 0
	for i, c := range clusters {
		luts[i] = pq.NewLUT(idx.PQ)
		idx.BuildLUT(luts[i], q, c, nil, false)
		rows += idx.Lists[c].Len()
	}
	sel := topk.NewSelector(k)
	b.ReportAllocs()
	benchAB(b, func() {
		sel.Reset()
		for i, c := range clusters {
			idx.ScanListADC(sel, luts[i], c, false)
		}
	})
	b.ReportMetric(float64(rows), "rows/op")
}

func BenchmarkScanListADC_K100(b *testing.B) { benchScanLists(b, 0) }

// BenchmarkScanListADC_OneTombstone is the same scan after a single
// Delete anywhere in the index. It must cost what K100 costs: a
// tombstone set no longer takes the lists off the kernel path.
func BenchmarkScanListADC_OneTombstone(b *testing.B) { benchScanLists(b, 1) }
