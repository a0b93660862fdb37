package anna

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// clusteredVectors generates n vectors around g Gaussian centers.
func clusteredVectors(n, d, g int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, g)
	for i := range centers {
		centers[i] = make([]float32, d)
		for j := range centers[i] {
			centers[i][j] = float32(rng.NormFloat64()) * 3
		}
	}
	out := make([][]float32, n)
	for i := range out {
		c := centers[rng.Intn(g)]
		v := make([]float32, d)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())*0.3
		}
		out[i] = v
	}
	return out
}

func buildTestIndex(t testing.TB, metric Metric, ks int) (*Index, [][]float32, [][]float32) {
	t.Helper()
	base := clusteredVectors(3000, 32, 24, 1)
	queries := clusteredVectors(12, 32, 24, 2)
	idx, err := BuildIndex(base, metric, BuildOptions{
		NClusters: 24, M: 8, Ks: ks, TrainIters: 6, Seed: 3,
		HardwareFaithful: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx, base, queries
}

func TestBuildIndexValidation(t *testing.T) {
	good := clusteredVectors(300, 8, 4, 1)
	cases := []struct {
		name string
		vecs [][]float32
		opt  BuildOptions
	}{
		{"no vectors", nil, BuildOptions{NClusters: 1, M: 2, Ks: 4}},
		{"zero dim", [][]float32{{}}, BuildOptions{NClusters: 1, M: 2, Ks: 4}},
		{"ragged", [][]float32{{1, 2}, {1}}, BuildOptions{NClusters: 1, M: 2, Ks: 4}},
		{"bad clusters", good, BuildOptions{NClusters: 0, M: 2, Ks: 4}},
		{"too many clusters", good, BuildOptions{NClusters: 301, M: 2, Ks: 4}},
		{"M not dividing", good, BuildOptions{NClusters: 4, M: 3, Ks: 4}},
		{"Ks too small", good, BuildOptions{NClusters: 4, M: 2, Ks: 1}},
		{"Ks too big", good, BuildOptions{NClusters: 4, M: 2, Ks: 300}},
		{"Ks above N", good[:10], BuildOptions{NClusters: 2, M: 2, Ks: 16}},
	}
	for _, c := range cases {
		if _, err := BuildIndex(c.vecs, L2, c.opt); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestSearchFindsPlantedNeighbor(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	// A query equal to a database vector must rank it (or a quantization
	// twin) first with high probability; verify against exact search.
	for _, qi := range []int{0, 100, 2999} {
		got := idx.Search(base[qi], idx.NClusters(), 10)
		if len(got) != 10 {
			t.Fatalf("got %d results", len(got))
		}
		exact, err := ExactSearch(base, L2, base[qi], 10)
		if err != nil {
			t.Fatal(err)
		}
		if exact[0].ID != int64(qi) {
			t.Fatalf("exact search did not find the planted vector")
		}
		found := false
		for _, r := range got[:5] {
			if r.ID == int64(qi) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("self-query %d not in top-5: %+v", qi, got[:5])
		}
	}
}

func TestRecallReasonable(t *testing.T) {
	idx, base, queries := buildTestIndex(t, L2, 16)
	var total float64
	for _, q := range queries {
		ex, err := ExactSearch(base, L2, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]int64, len(ex))
		for i, r := range ex {
			truth[i] = r.ID
		}
		got := idx.Search(q, 8, 100)
		total += Recall(10, 100, truth, got)
	}
	if avg := total / float64(len(queries)); avg < 0.6 {
		t.Errorf("recall 10@100 = %.2f, too low", avg)
	}
}

func TestSearchBatchModesAgree(t *testing.T) {
	idx, _, queries := buildTestIndex(t, InnerProduct, 16)
	a, err := idx.SearchBatch(queries, SearchOptions{W: 6, K: 10, Mode: QueryAtATime})
	if err != nil {
		t.Fatal(err)
	}
	b, err := idx.SearchBatch(queries, SearchOptions{W: 6, K: 10, Mode: ClusterMajor})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range a.Results {
		for i := range a.Results[qi] {
			if a.Results[qi][i].Score != b.Results[qi][i].Score {
				t.Fatalf("mode mismatch q%d rank %d", qi, i)
			}
		}
	}
	if b.ListBytesTouched >= a.ListBytesTouched {
		t.Errorf("cluster-major did not reduce bytes: %d vs %d",
			b.ListBytesTouched, a.ListBytesTouched)
	}
}

// K is clamped to the vector count, as W is to the cluster count: a K no
// index could fill returns exactly the K = Len() rows, in both
// disciplines and under escalation (whose K*EscalateFactor is clamped
// too), instead of sizing its arenas from the request.
func TestSearchBatchClampsK(t *testing.T) {
	base := clusteredVectors(400, 16, 8, 1)
	idx, err := BuildIndex(base, L2, BuildOptions{NClusters: 8, M: 4, Ks: 16, TrainIters: 4, Seed: 3, RetainForRerank: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := base[:4]
	for name, opt := range map[string]SearchOptions{
		"query-at-a-time": {W: 8, Mode: QueryAtATime},
		"cluster-major":   {W: 8, Mode: ClusterMajor},
		"escalating":      {W: 8, Adaptive: AdaptiveOptions{EscalateFactor: math.MaxInt32, Margin: 1}},
	} {
		opt.K = idx.Len()
		want, err := idx.SearchBatch(queries, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.K = math.MaxInt
		got, err := idx.SearchBatch(queries, opt)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if len(want.Results[qi]) != idx.Len() || !slices.Equal(got.Results[qi], want.Results[qi]) {
				t.Fatalf("%s q%d: %d rows at K=MaxInt, %d at K=Len()=%d, or they differ",
					name, qi, len(got.Results[qi]), len(want.Results[qi]), idx.Len())
			}
		}
	}
	if got := idx.Search(queries[0], 8, math.MaxInt); len(got) != idx.Len() {
		t.Fatalf("Search at K=MaxInt: %d rows, want %d", len(got), idx.Len())
	}
}

func TestSearchBatchErrors(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	if _, err := idx.SearchBatch(queries, SearchOptions{W: 0, K: 5}); err == nil {
		t.Error("W=0 accepted")
	}
	if _, err := idx.SearchBatch([][]float32{{1, 2}}, SearchOptions{W: 1, K: 1}); err == nil {
		t.Error("wrong dim accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := idx.Search(queries[0], 6, 5)
	b := loaded.Search(queries[0], 6, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded index differs at %d", i)
		}
	}
	if loaded.Len() != idx.Len() || loaded.Dim() != idx.Dim() || loaded.Metric() != idx.Metric() {
		t.Error("metadata mismatch")
	}
}

func TestStats(t *testing.T) {
	idx, _, _ := buildTestIndex(t, L2, 16)
	st := idx.Stats()
	if st.Vectors != 3000 || st.Clusters != 24 {
		t.Errorf("stats: %+v", st)
	}
	// D=32 f16 (64 B) vs M=8 Ks=16 codes (4 B) -> 16:1.
	if st.CompressionRatio != 16 {
		t.Errorf("compression = %v", st.CompressionRatio)
	}
}

func TestAcceleratorMatchesSoftware(t *testing.T) {
	for _, metric := range []Metric{L2, InnerProduct} {
		idx, _, queries := buildTestIndex(t, metric, 16)
		cfg := DefaultAcceleratorConfig()
		cfg.TopK = 100
		acc, err := NewAccelerator(idx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := acc.SimulateBaseline(queries, SimParams{W: 6, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := idx.SearchBatch(queries, SearchOptions{
			W: 6, K: 10, Mode: QueryAtATime, HardwareFaithful: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for qi := range rep.Results {
			for i := range rep.Results[qi] {
				if rep.Results[qi][i] != sw.Results[qi][i] {
					t.Fatalf("%v q%d rank %d: accel %+v vs software %+v",
						metric, qi, i, rep.Results[qi][i], sw.Results[qi][i])
				}
			}
		}
		if rep.Cycles <= 0 || rep.QPS <= 0 || rep.TrafficBytes <= 0 {
			t.Errorf("report: %+v", rep)
		}
		if rep.ChipEnergyJ <= 0 || rep.DRAMEnergyJ <= 0 {
			t.Errorf("energy: %v %v", rep.ChipEnergyJ, rep.DRAMEnergyJ)
		}
	}
}

func TestAcceleratorBatchedFasterAndEqual(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	cfg := DefaultAcceleratorConfig()
	cfg.TopK = 100
	acc, err := NewAccelerator(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := acc.SimulateBaseline(queries, SimParams{W: 6, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := acc.Simulate(queries, SimParams{W: 6, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cycles >= base.Cycles {
		t.Errorf("batched %d cycles >= baseline %d", opt.Cycles, base.Cycles)
	}
	if opt.TrafficBytes >= base.TrafficBytes {
		t.Errorf("batched traffic %d >= baseline %d", opt.TrafficBytes, base.TrafficBytes)
	}
	for qi := range opt.Results {
		for i := range opt.Results[qi] {
			if opt.Results[qi][i].Score != base.Results[qi][i].Score {
				t.Fatalf("batched/baseline score mismatch q%d rank %d", qi, i)
			}
		}
	}
}

func TestAcceleratorErrors(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	// Unsupported k* surfaces as an error, not a panic.
	bad, err := BuildIndex(clusteredVectors(500, 32, 8, 4), L2, BuildOptions{
		NClusters: 8, M: 8, Ks: 32, TrainIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccelerator(bad, DefaultAcceleratorConfig()); err == nil {
		t.Error("k*=32 accepted by hardware")
	}
	acc, err := NewAccelerator(idx, DefaultAcceleratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Simulate(queries, SimParams{W: 0, K: 10}); err == nil {
		t.Error("W=0 accepted")
	}
	if _, err := acc.Simulate([][]float32{{1}}, SimParams{W: 1, K: 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestAcceleratorTimingOnlyAndTrace(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	cfg := DefaultAcceleratorConfig()
	cfg.TopK = 100
	cfg.Trace = true
	acc, err := NewAccelerator(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Simulate(queries, SimParams{W: 4, K: 10, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Error("TimingOnly returned results")
	}
	if len(rep.Timeline) == 0 {
		t.Error("trace enabled but no timeline")
	}
	if len(rep.TrafficByStream) == 0 {
		t.Error("no per-stream traffic")
	}
}

func TestSilicon(t *testing.T) {
	// Use the paper's geometry (D=128, k*=256, M=64) so the codebook and
	// LUT SRAMs match Table I.
	base := clusteredVectors(2000, 128, 16, 5)
	idx, err := BuildIndex(base, L2, BuildOptions{
		NClusters: 16, M: 64, Ks: 256, TrainIters: 2, MaxTrain: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccelerator(idx, DefaultAcceleratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	si := acc.Silicon()
	if si.TotalAreaMM2 < 17 || si.TotalAreaMM2 > 18 {
		t.Errorf("area %.2f, Table I says 17.51", si.TotalAreaMM2)
	}
	if si.TotalPeakW < 5.1 || si.TotalPeakW > 5.7 {
		t.Errorf("power %.2f, Table I says 5.398", si.TotalPeakW)
	}
	if len(si.Modules) != 4 {
		t.Errorf("%d modules", len(si.Modules))
	}
}

func TestRunExperimentTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", ScaleQuick, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "17.51") {
		t.Error("table1 output missing paper reference value")
	}
	if err := RunExperiment("nope", ScaleQuick, nil, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := RunExperiment("fig9", ScaleQuick, []string{"bogus"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunExperimentRelatedAndExact(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("related", ScaleQuick, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if err := RunExperiment("exact", ScaleQuick, []string{"SIFT1M"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Gemini") || !strings.Contains(out, "SIFT1M") {
		t.Error("experiment output incomplete")
	}
}

func TestExperimentsList(t *testing.T) {
	if len(Experiments()) != 11 {
		t.Errorf("%d experiments", len(Experiments()))
	}
}

func TestMetricString(t *testing.T) {
	if L2.String() != "l2" || InnerProduct.String() != "inner-product" {
		t.Error("metric names")
	}
}
