package anna

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anna/internal/trace"
)

// postSearch sends a /search with an optional X-Request-ID and returns
// the response.
func postSearch(t *testing.T, url string, body searchRequest, reqID string) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/search", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A client-supplied X-Request-ID is echoed back, forces a trace, and
// the trace is retrievable from both debug endpoints with the engine's
// stage spans attached.
func TestSearchRequestIDTraceRoundTrip(t *testing.T) {
	_, ts, base := newTestServer(t)

	resp := postSearch(t, ts.URL, searchRequest{Queries: [][]float32{base[3]}, W: 24, K: 5}, "req-abc-123")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc-123" {
		t.Fatalf("X-Request-ID echoed as %q", got)
	}

	// The trace is in /debug/trace/{id} ...
	tr := getTrace(t, ts.URL, "req-abc-123")
	if tr.Queries != 1 || tr.W != 24 || tr.K != 5 || tr.Backend != "software" {
		t.Errorf("trace fields: %+v", tr)
	}
	if tr.Status != http.StatusOK {
		t.Errorf("trace status %d, want 200", tr.Status)
	}
	if tr.Total <= 0 {
		t.Errorf("trace total %v, want > 0", tr.Total)
	}
	for _, span := range []string{"select", "scan", "merge"} {
		found := false
		for _, sp := range tr.Spans {
			if sp.Name == span {
				found = true
			}
		}
		if !found {
			t.Errorf("trace missing %q span: %+v", span, tr.Spans)
		}
	}
	if tr.Scanned <= 0 {
		t.Errorf("trace scanned %d, want > 0", tr.Scanned)
	}

	// ... and in /debug/queries.
	dq := getDebugQueries(t, ts.URL, "")
	found := false
	for _, item := range dq.Traces {
		if item.ID == "req-abc-123" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace not listed in /debug/queries: %+v", dq)
	}
}

// Untagged requests get a generated ID; with sampling disabled they are
// not traced, so the debug lookup 404s.
func TestSearchGeneratedRequestID(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.TraceSampleEvery = -1 // only explicit X-Request-ID requests trace

	resp := postSearch(t, ts.URL, searchRequest{Queries: [][]float32{base[0]}}, "")
	defer resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID generated")
	}
	lookup, err := http.Get(ts.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer lookup.Body.Close()
	if lookup.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled query traced: /debug/trace/%s -> %d", id, lookup.StatusCode)
	}
}

// With 1-in-1 sampling every request is traced; /debug/queries reports
// them slowest-first and honours ?n=.
func TestDebugQueriesSampledSlowestFirst(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.TraceSampleEvery = 1

	for i := 0; i < 5; i++ {
		resp := postSearch(t, ts.URL, searchRequest{Queries: [][]float32{base[i]}}, "")
		resp.Body.Close()
	}
	dq := getDebugQueries(t, ts.URL, "")
	if dq.RecordedTotal != 5 || dq.Count != 5 {
		t.Fatalf("recorded %d, listed %d, want 5 each", dq.RecordedTotal, dq.Count)
	}
	for i := 1; i < len(dq.Traces); i++ {
		if dq.Traces[i].Total > dq.Traces[i-1].Total {
			t.Errorf("traces not slowest-first at %d: %v > %v", i, dq.Traces[i].Total, dq.Traces[i-1].Total)
		}
	}
	if dq = getDebugQueries(t, ts.URL, "?n=2"); dq.Count != 2 || len(dq.Traces) != 2 {
		t.Errorf("?n=2 returned %d traces", len(dq.Traces))
	}
}

// A query that crosses the slow threshold is captured with its stage
// spans even when it was never sampled, and marked slow.
func TestSlowQueryAutoTrace(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.TraceSampleEvery = -1
	s.SlowQuery = time.Nanosecond // everything is slow

	resp := postSearch(t, ts.URL, searchRequest{Queries: [][]float32{base[1]}}, "")
	defer resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	tr := getTrace(t, ts.URL, id)
	if !tr.Slow {
		t.Errorf("slow query not marked slow: %+v", tr)
	}
	if tr.SpanDuration("scan") == 0 && tr.SpanDuration("select") == 0 && tr.SpanDuration("merge") == 0 {
		t.Errorf("post-hoc slow trace has no stage spans: %+v", tr.Spans)
	}
	if _, slow := s.front.Recorder().Recorded(); slow != 1 {
		t.Errorf("slow counter %d, want 1", slow)
	}
}

// The rolling shadow-recall gauge converges to the offline recall of
// the same configuration within a couple of points.
func TestServerRecallEstimatorConvergence(t *testing.T) {
	idx, base, queries := buildTestIndex(t, L2, 16)
	est, err := NewRecallEstimator(base, L2, &RecallEstimatorOptions{SampleEvery: 1, K: 10, Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	s := NewServer(idx)
	s.Recall = est
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const w = 8
	nq := len(queries)
	if nq > 64 {
		nq = 64
	}
	for i := 0; i < nq; i++ {
		resp := postSearch(t, ts.URL, searchRequest{Queries: [][]float32{queries[i]}, W: w, K: 10}, "")
		resp.Body.Close()
	}
	waitProcessed(t, est)

	// Offline reference: same queries, same W/K, scored by the library's
	// own recall helper against exact search.
	var offline float64
	for i := 0; i < nq; i++ {
		truth, err := ExactSearch(base, L2, queries[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, len(truth))
		for j, r := range truth {
			ids[j] = r.ID
		}
		offline += Recall(10, 10, ids, idx.Search(queries[i], w, 10))
	}
	offline /= float64(nq)

	online := est.Rolling()
	if math.Abs(online-offline) > 0.02 {
		t.Errorf("online recall %v vs offline %v: diverged beyond 2 points", online, offline)
	}
	// And the gauge is live on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `anna_shadow_recall_rolling{k="10"}`) {
		t.Errorf("rolling recall gauge missing from /metrics")
	}
}

// A stalled shadow worker must not delay /search responses: the sample
// is dropped, the response returns promptly.
func TestShadowRerankNeverBlocksServing(t *testing.T) {
	idx, base, queries := buildTestIndex(t, L2, 16)
	est, err := NewRecallEstimator(base, L2, &RecallEstimatorOptions{SampleEvery: 1, K: 10, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	stall := make(chan struct{})
	est.testHookBeforeJob = func() { <-stall }
	defer close(stall)

	s := NewServer(idx)
	s.Recall = est
	s.SearchTimeout = 2 * time.Second
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	for i := 0; i < 20; i++ {
		resp := postSearch(t, ts.URL, searchRequest{Queries: [][]float32{queries[i%len(queries)]}, W: 8, K: 10}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("20 searches with a stalled shadow worker took %v", elapsed)
	}
	_, _, dropped, _ := est.Stats()
	if dropped == 0 {
		t.Error("stalled worker with queue depth 1: no samples dropped")
	}
}

// debugQueriesResponse mirrors handleDebugQueries's payload.
type debugQueriesResponse struct {
	RecordedTotal uint64         `json:"recorded_total"`
	SlowTotal     uint64         `json:"slow_total"`
	Count         int            `json:"count"`
	Traces        []*trace.Trace `json:"traces"`
}

func getDebugQueries(t *testing.T, base, query string) debugQueriesResponse {
	t.Helper()
	resp, err := http.Get(base + "/debug/queries" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status %d", resp.StatusCode)
	}
	var out debugQueriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getTrace(t *testing.T, base, id string) *trace.Trace {
	t.Helper()
	resp, err := http.Get(base + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/%s status %d", id, resp.StatusCode)
	}
	var out trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}
