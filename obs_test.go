package anna

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anna/internal/httpx"
	"anna/internal/trace"
)

// newObsServer builds a test server with the scraper running fast and
// the latency SLO on, so the obs endpoints have data to serve.
func newObsServer(t *testing.T) (*Server, string, [][]float32) {
	t.Helper()
	idx, base, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.ScrapeEvery = 10 * time.Millisecond
	s.SLOLatencyP99 = 50 * time.Millisecond
	s.SLOAvailability = 0.999
	ts := newTS(t, s)
	t.Cleanup(s.Close)
	return s, ts, base
}

func newTS(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s decode: %v", url, err)
	}
}

// The observability surface must be live when scraping is on: tsdb
// series with points, SLO alerts, and the self-contained dashboard.
func TestObsEndpoints(t *testing.T) {
	_, ts, base := newObsServer(t)
	resp := postJSON(t, ts+"/search", searchRequest{Queries: [][]float32{base[0]}, K: 3})
	resp.Body.Close()
	time.Sleep(50 * time.Millisecond) // a few scrape ticks

	var db struct {
		IntervalMS int64                        `json:"interval_ms"`
		Series     map[string][]json.RawMessage `json:"series"`
	}
	getJSON(t, ts+"/debug/tsdb", &db)
	if db.IntervalMS != 10 {
		t.Errorf("interval_ms = %d, want 10", db.IntervalMS)
	}
	for _, name := range []string{"requests", "errors_5xx", "queries", "latency_p99_ms", "latency_slow", "latency_total"} {
		if len(db.Series[name]) == 0 {
			t.Errorf("series %q missing or empty (have %d series)", name, len(db.Series))
		}
	}

	var alerts struct {
		SLOs []struct {
			SLO   string `json:"slo"`
			State string `json:"state"`
		} `json:"slos"`
	}
	getJSON(t, ts+"/alerts", &alerts)
	names := map[string]string{}
	for _, a := range alerts.SLOs {
		names[a.SLO] = a.State
	}
	if names["latency_p99"] != "ok" || names["availability"] != "ok" {
		t.Errorf("alerts = %v, want latency_p99 and availability ok", names)
	}

	dash, err := http.Get(ts + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer dash.Body.Close()
	body, _ := io.ReadAll(dash.Body)
	if dash.StatusCode != http.StatusOK || !strings.Contains(string(body), "annaserve") {
		t.Fatalf("dash status %d, body %.80s", dash.StatusCode, body)
	}
}

// A negative ScrapeEvery must disable the whole obs stack.
func TestObsDisabled(t *testing.T) {
	idx, _, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.ScrapeEvery = -1
	ts := newTS(t, s)
	t.Cleanup(s.Close)
	for _, path := range []string{"/debug/tsdb", "/alerts", "/debug/dash"} {
		resp, err := http.Get(ts + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d with obs disabled, want 404", path, resp.StatusCode)
		}
	}
}

// An incoming X-Anna-Trace header must force a trace whose parent is
// the caller's span — the shard half of cross-process stitching.
func TestWireHeaderForcesTraceWithParent(t *testing.T) {
	_, ts, base := newObsServer(t)
	b, _ := json.Marshal(searchRequest{Queries: [][]float32{base[0]}, K: 3})
	req, _ := http.NewRequest(http.MethodPost, ts+"/search", strings.NewReader(string(b)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.HeaderWire, trace.FormatWire("wire-42", "shard7"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	// The wire ID doubles as the request ID when none is set explicitly.
	if got := resp.Header.Get(httpx.HeaderRequestID); got != "wire-42" {
		t.Errorf("request ID echo = %q, want wire-42", got)
	}

	var tr trace.Trace
	getJSON(t, ts+"/debug/trace/wire-42", &tr)
	if tr.ID != "wire-42" || tr.Parent != "shard7" {
		t.Errorf("trace id=%q parent=%q, want wire-42/shard7", tr.ID, tr.Parent)
	}
	if len(tr.Spans) == 0 {
		t.Errorf("wire-forced trace has no spans")
	}
}
