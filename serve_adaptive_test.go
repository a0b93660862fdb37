package anna

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"anna/internal/adaptive"
)

// Static adaptive policy: searches succeed, the effort instruments are
// exported, and /stats reports the operating point.
func TestServerAdaptiveStaticPolicy(t *testing.T) {
	idx, base, queries := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.CacheSize = -1
	s.BatchMaxConcurrent = -1
	s.Adaptive = AdaptiveServing{Policy: AdaptiveOptions{StopPatience: 2, MinClusters: 2}}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, q := range queries[:4] {
		resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{q}, K: 10})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out searchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(out.Results) != 1 || len(out.Results[0]) != 10 {
			t.Fatalf("shape: %d rows", len(out.Results))
		}
	}
	// A pinned W still terminates early; results stay valid.
	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[3]}, W: 24, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned-W status %d", resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"anna_adaptive_clusters_scanned",
		"anna_adaptive_escalations_total",
		`anna_adaptive_knob{name="stop_patience"} 2`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Early termination visible: fewer clusters scanned than queries*W.
	var stats map[string]any
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ad, ok := stats["adaptive"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no adaptive section: %v", stats)
	}
	if got := ad["stop_patience"].(float64); got != 2 {
		t.Errorf("stats stop_patience = %v, want 2", got)
	}
}

// The cache key must fingerprint the adaptive operating point: a knob
// step makes previously cached rows unreachable instead of serving
// results computed at a different effort level.
func TestAdaptiveCacheKeyIncludesKnobs(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	q := base[0]

	base0 := s.appendCacheKey(nil, q, 8, 10)
	k1 := adaptive.Knobs{W: 8, StopPatience: 2, MinClusters: 1, EscalateFactor: 0, Margin: 0}
	s.knobs.Store(&k1)
	with1 := s.appendCacheKey(nil, q, 8, 10)
	k2 := k1
	k2.StopPatience = 4
	s.knobs.Store(&k2)
	with2 := s.appendCacheKey(nil, q, 8, 10)

	if bytes.Equal(base0, with1) {
		t.Error("key with adaptive knobs equals the plain key")
	}
	if bytes.Equal(with1, with2) {
		t.Error("keys at different stop_patience are equal")
	}
	s.knobs.Store(&k1)
	again := s.appendCacheKey(nil, q, 8, 10)
	if !bytes.Equal(with1, again) {
		t.Error("same knobs do not reproduce the same key")
	}
}

// The closed loop: a server with -recall-target semantics relaxes effort
// from the safe maximum while the live estimate shows headroom, and
// holds the rolling recall within 2 points of the target.
func TestServerRecallTargetConvergence(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	queries := clusteredVectors(48, 32, 24, 7)

	est, err := NewRecallEstimator(base, L2, &RecallEstimatorOptions{
		SampleEvery: 1, K: 10, Window: 48, QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(est.Close)

	// Anchor the SLO to what this index actually delivers at full
	// effort, so the test pins controller behaviour, not corpus recall.
	full := 0.0
	for _, q := range queries {
		got := idx.Search(q, 24, 10)
		truth, err := ExactSearch(base, L2, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		hit := 0
		for _, g := range got {
			for _, tr := range truth {
				if g.ID == tr.ID {
					hit++
					break
				}
			}
		}
		full += float64(hit) / 10
	}
	full /= float64(len(queries))
	target := full - 0.05
	if target <= 0 {
		t.Fatalf("full-effort recall %.3f leaves no room for a target", full)
	}

	s := NewServer(idx)
	s.DefaultW = 24
	s.CacheSize = -1
	s.BatchMaxConcurrent = -1
	s.Recall = est
	s.Adaptive = AdaptiveServing{
		Policy:       AdaptiveOptions{StopPatience: 2, MinClusters: 2},
		RecallTarget: target,
		Interval:     2 * time.Millisecond,
		MinW:         2,
		Levels:       6,
		Hysteresis:   2,
		MinSamples:   24,
		Deadband:     0.02,
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	if s.knobs.Load() == nil {
		t.Fatal("controller did not publish initial knobs")
	}
	if got := int(s.effort.Load()); got != 6 {
		t.Fatalf("initial effort %d, want the ladder top (6)", got)
	}

	// Drive traffic (w omitted, so the controller's effective W applies)
	// until the controller has settled: it stepped at least once and the
	// rolling estimate holds the SLO.
	deadline := time.Now().Add(30 * time.Second)
	stable := 0
	for time.Now().Before(deadline) && stable < 3 {
		before := s.effort.Load()
		for _, q := range queries {
			resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{q}, K: 10})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		waitProcessed(t, est)
		time.Sleep(10 * time.Millisecond) // a few controller ticks
		if s.effort.Load() == before && est.Rolling() >= target-0.02 {
			stable++
		} else {
			stable = 0
		}
	}

	kn := s.knobs.Load()
	effort := int(s.effort.Load())
	rolling := est.Rolling()
	t.Logf("converged: effort %d/6, W %d, rolling recall %.3f (target %.3f, full %.3f)",
		effort, kn.W, rolling, target, full)
	if stable < 3 {
		t.Fatalf("controller never settled: effort %d, rolling %.3f vs target %.3f", effort, rolling, target)
	}
	if effort >= 6 {
		t.Errorf("controller never relaxed from max effort despite %.3f headroom", full-target)
	}
	if rolling < target-0.02 {
		t.Errorf("SLO not held: rolling %.3f < target %.3f - 0.02", rolling, target)
	}
}
