package main

import (
	"io"
	"regexp"
	"sort"
	"testing"
)

// TestQuickMatchesBenchmarkJSON runs every workload in -quick mode, with
// and without the traced pass, and checks that what the harness emits is
// exactly what ../BENCHMARK.json declares. The numbers mean nothing at
// this size; the names, the checks and the plumbing are what must not rot.
func TestQuickMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !equalSets(declared, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json declares %v, the harness runs %v", declared, workloadNames)
	}
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: w, seed: 1, seconds: 0.3, trace: trace, quick: true, tmp: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w, name)
				}
				got = append(got, name)
			}
			want := e2e
			if trace {
				want = layers
			}
			if !equalSets(got, want) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json declares %v", w, trace, got, want)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCheckRowRejects(t *testing.T) {
	row := func(ids []int64, scores []float32) error {
		return checkRow(len(ids), func(i int) (int64, float32) { return ids[i], scores[i] },
			func(id int64) bool { return id >= 0 && id < 100 })
	}
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	desc := []float32{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10}
	if err := row(ids, desc); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if row(ids[:9], desc[:9]) == nil {
		t.Error("short row accepted")
	}
	if row(ids, []float32{-1, -2, -3, -4, -5, -6, -7, -8, -10, -9}) == nil {
		t.Error("unsorted row accepted")
	}
	if row([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, desc) == nil {
		t.Error("out-of-range id accepted")
	}
}
