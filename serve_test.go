package anna

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"anna/internal/wal"
	"anna/internal/wire"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, [][]float32) {
	t.Helper()
	idx, base, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, base
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerSearch(t *testing.T) {
	_, ts, base := newTestServer(t)
	resp := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: [][]float32{base[5]}, W: 24, K: 3,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0]) != 3 {
		t.Fatalf("shape: %+v", out)
	}
	// Querying with a database vector: it (or a quantization twin) ranks
	// near the top.
	found := false
	for _, r := range out.Results[0] {
		if r.ID == 5 {
			found = true
		}
	}
	if !found {
		t.Logf("self not in top-3 (quantization tie): %+v", out.Results[0])
	}
}

func TestServerSearchDefaults(t *testing.T) {
	_, ts, base := newTestServer(t)
	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[0]}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out searchResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if len(out.Results[0]) != 10 { // DefaultK
		t.Errorf("%d results with defaults", len(out.Results[0]))
	}
}

func TestServerSearchErrors(t *testing.T) {
	_, ts, base := newTestServer(t)
	// The refusals both front doors share (wrong method, undecodable
	// body, empty or oversized batch, k over wire.MaxK, body over
	// httpx.MaxBody) are internal/httpx's TestFrontDoorContract; these
	// two rows are annaserve's own.
	cases := []struct {
		name string
		body any
		code int
	}{
		{"wrong dim", searchRequest{Queries: [][]float32{{1, 2}}}, http.StatusBadRequest},
		{"still serving", searchRequest{Queries: [][]float32{base[0]}, K: wire.MaxK}, http.StatusOK},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/search", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}
}

func TestServerAddThenSearch(t *testing.T) {
	_, ts, _ := newTestServer(t)
	newVecs := clusteredVectors(10, 32, 24, 77)
	resp := postJSON(t, ts.URL+"/add", addRequest{Vectors: newVecs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d", resp.StatusCode)
	}
	var added addResponse
	json.NewDecoder(resp.Body).Decode(&added)
	if added.Count != 10 || added.FirstID != 3000 {
		t.Fatalf("add response %+v", added)
	}

	// The added vector is now searchable.
	sr := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: [][]float32{newVecs[0]}, W: 24, K: 5,
	})
	defer sr.Body.Close()
	var out searchResponse
	json.NewDecoder(sr.Body).Decode(&out)
	found := false
	for _, r := range out.Results[0] {
		if r.ID == added.FirstID {
			found = true
		}
	}
	if !found {
		t.Errorf("added vector not found: %+v", out.Results[0])
	}
}

func TestServerStatsAndHealth(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["vectors"].(float64) != 3000 || st["metric"].(string) != "l2" {
		t.Errorf("stats: %+v", st)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hz.StatusCode)
	}
}

func TestServerAcceleratorBackend(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	cfg := DefaultAcceleratorConfig()
	cfg.TopK = 100
	acc, err := NewAccelerator(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(idx)
	s.Accelerator = acc
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: [][]float32{base[3]}, W: 6, K: 5, Backend: "anna",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out searchResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if len(out.Results) != 1 || len(out.Results[0]) != 5 {
		t.Fatalf("shape %+v", out.Results)
	}
	if out.Cycles <= 0 || out.TrafficBytes <= 0 || out.ChipEnergyJ <= 0 {
		t.Errorf("missing simulated cost: %+v", out)
	}

	// Unknown backend and missing accelerator both error.
	bad := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: [][]float32{base[0]}, Backend: "gpu",
	})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown backend status %d", bad.StatusCode)
	}
	s.Accelerator = nil
	noacc := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: [][]float32{base[0]}, Backend: "anna",
	})
	noacc.Body.Close()
	if noacc.StatusCode != http.StatusBadRequest {
		t.Errorf("accelerator-less status %d", noacc.StatusCode)
	}
}

// After a search, /metrics exposes the per-stage latency histograms, the
// saturation gauges and the per-handler request series.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts, base := newTestServer(t)
	resp := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: [][]float32{base[0], base[1]}, W: 8, K: 5,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(mr.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE anna_stage_duration_seconds histogram",
		`anna_stage_duration_seconds_bucket{stage="select",le="+Inf"} 1`,
		`anna_stage_duration_seconds_bucket{stage="scan",le="+Inf"} 1`,
		`anna_stage_duration_seconds_bucket{stage="merge",le="+Inf"} 1`,
		`anna_stage_duration_seconds_count{stage="select"} 1`,
		`anna_request_duration_seconds_count{handler="search"} 1`,
		`anna_http_requests_total{handler="search",code="200"} 1`,
		"anna_inflight_requests 0",
		"anna_engine_queue_depth 0",
		"anna_engine_inflight_queries 0",
		"anna_index_vectors 3000",
		"anna_search_queries_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Real work was accounted: scanned vectors and list bytes are > 0.
	for _, prefix := range []string{"anna_scanned_vectors_total ", "anna_list_bytes_read_total "} {
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Errorf("/metrics missing %q", prefix)
			continue
		}
		val := strings.TrimSpace(out[i+len(prefix) : i+len(prefix)+strings.IndexByte(out[i+len(prefix):], '\n')])
		if val == "0" {
			t.Errorf("%s is zero", prefix)
		}
	}
}

// With the admission gate saturated, /search sheds load with 429 and
// counts the rejection; a freed slot admits again.
func TestServerOverload(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.MaxInFlight = 1
	s.inflight.Add(1) // occupy the only slot
	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[0]}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.m.rejected.Value(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}

	s.inflight.Add(-1) // release
	ok := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[0]}})
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("freed-slot status %d, want 200", ok.StatusCode)
	}
}

// An expired SearchTimeout propagates through the request context into
// the engine, which abandons the batch; the client gets 504.
func TestServerSearchTimeout(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.SearchTimeout = time.Nanosecond
	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[0]}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e["error"], "deadline") {
		t.Errorf("error %q does not mention the deadline", e["error"])
	}
}

func TestServerAddValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, tc := range []struct {
		name string
		body any
	}{
		{"empty", addRequest{}},
		{"wrong dim", addRequest{Vectors: [][]float32{{1, 2, 3}}}},
	} {
		resp := postJSON(t, ts.URL+"/add", tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// NaN/Inf can't transit well-formed JSON, so exercise the validator
	// directly (the embedded-server path).
	bad := make([]float32, 32)
	bad[7] = float32(math.NaN())
	if err := validateAddVectors([][]float32{bad}, 32); err == nil {
		t.Error("NaN vector accepted")
	}
	bad[7] = float32(math.Inf(1))
	if err := validateAddVectors([][]float32{bad}, 32); err == nil {
		t.Error("+Inf vector accepted")
	}
	if err := validateAddVectors([][]float32{make([]float32, 32)}, 32); err != nil {
		t.Errorf("finite vector rejected: %v", err)
	}
}

func TestServerPprof(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	// Disabled servers don't expose profiles.
	idx, _, _ := buildTestIndex(t, L2, 16)
	off := NewServer(idx)
	off.DisablePprof = true
	ts2 := httptest.NewServer(off.Handler())
	defer ts2.Close()
	r2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("disabled pprof status %d, want 404", r2.StatusCode)
	}
}

// /stats reports serving latency quantiles once traffic has flowed.
func TestServerStatsLatencySummary(t *testing.T) {
	_, ts, base := newTestServer(t)
	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[0]}})
	resp.Body.Close()
	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(st.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	lat, ok := out["search_latency_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing search_latency_seconds: %v", out)
	}
	if lat["count"].(float64) != 1 {
		t.Errorf("latency count %v, want 1", lat["count"])
	}
	if p50 := lat["p50"].(float64); p50 <= 0 {
		t.Errorf("p50 %v, want > 0", p50)
	}
}

// Concurrent searches and adds must not race (run with -race).
func TestServerConcurrentAccess(t *testing.T) {
	_, ts, base := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				resp := postJSON(t, ts.URL+"/add", addRequest{
					Vectors: clusteredVectors(5, 32, 24, int64(i)),
				})
				resp.Body.Close()
				return
			}
			resp := postJSON(t, ts.URL+"/search", searchRequest{
				Queries: [][]float32{base[i]}, W: 8, K: 5,
			})
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
}

// The readiness contract: a booting process serves the gate while it
// recovers, so /healthz says alive, /readyz says not-ready, and traffic
// is refused with a Retry-After — and only after recovery (snapshot
// load + WAL replay) completes and the real handler is swapped in does
// /readyz flip to 200.
func TestReadyzFlipsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	batch := randVectors(3, 40, 8)
	if err := st.LogAdd(st.Index().NextID(), batch); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Index().Add(batch); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	gate := NewReadinessGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Before recovery: alive but not ready, traffic refused politely.
	if got := get("/healthz").StatusCode; got != http.StatusOK {
		t.Fatalf("/healthz before recovery: %d", got)
	}
	if got := get("/readyz").StatusCode; got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before recovery: %d, want 503", got)
	}
	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{make([]float32, 8)}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/search before recovery: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("pre-ready 503 carries no Retry-After")
	}
	if gate.IsReady() {
		t.Fatal("gate ready before Ready()")
	}

	// Recovery: snapshot load + WAL replay, then swap the handler in.
	re, err := OpenStore(dir, StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.ReplayedRecords() != 1 {
		t.Fatalf("replayed %d records, want 1", re.ReplayedRecords())
	}
	srv := NewServer(re.Index())
	srv.Store = re
	gate.Ready(srv.Handler())

	if got := get("/readyz").StatusCode; got != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", got)
	}
	resp = postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{make([]float32, 8)}, K: 3})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search after recovery: %d", resp.StatusCode)
	}
}

// The replication endpoints: /admin/state hands out bytes + position a
// follower can bootstrap from, /admin/wal/tail catches it up from a
// sequence number, and a snapshot trim turns stale positions into 410s.
func TestServerAdminStateAndWALTail(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, buildDurableBase(t), StoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st.Index())
	srv.Store = st
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer st.Close()

	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/add", map[string]any{"vectors": randVectors(int64(10+i), 5, 8)})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add %d: %d", i, resp.StatusCode)
		}
	}

	// Bootstrap download: position headers + loadable, bit-exact bytes.
	resp, err := http.Get(ts.URL + "/admin/state")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/state: %d %v", resp.StatusCode, err)
	}
	epoch := resp.Header.Get("X-Anna-Epoch")
	if resp.Header.Get("X-Anna-Seq") != "2" {
		t.Fatalf("X-Anna-Seq = %q, want 2", resp.Header.Get("X-Anna-Seq"))
	}
	got, err := LoadIndex(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("state bytes do not load: %v", err)
	}
	expectSameResults(t, st.Index(), got)
	var want bytes.Buffer
	if err := st.Index().Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), body) {
		t.Fatal("/admin/state bytes differ from Index.Save — bootstrap not bit-exact")
	}

	// Tail from 0: both records, decodable as wal frames.
	tail := func(epoch, from string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/admin/wal/tail?epoch=" + epoch + "&from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	resp2, frames := tail(epoch, "0")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("tail from 0: %d", resp2.StatusCode)
	}
	n, err := wal.ReplayFrom(bytes.NewReader(frames), 0, func(seq uint64, payload []byte) error {
		if _, _, err := decodeAddRecord(payload); err != nil {
			return err
		}
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("tail frames: n=%d err=%v", n, err)
	}
	// Caught up: empty 200.
	resp2, frames = tail(epoch, "2")
	if resp2.StatusCode != http.StatusOK || len(frames) != 0 {
		t.Fatalf("caught-up tail: %d, %d bytes", resp2.StatusCode, len(frames))
	}
	// Past the end / wrong epoch: 410 — re-bootstrap.
	if resp2, _ = tail(epoch, "3"); resp2.StatusCode != http.StatusGone {
		t.Fatalf("past-end tail: %d, want 410", resp2.StatusCode)
	}
	if resp2, _ = tail("1", "0"); resp2.StatusCode != http.StatusGone {
		t.Fatalf("stale-epoch tail: %d, want 410", resp2.StatusCode)
	}
	// A snapshot trims the WAL: the old epoch is gone for every seq.
	sresp := postJSON(t, ts.URL+"/admin/snapshot", struct{}{})
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", sresp.StatusCode)
	}
	if resp2, _ = tail(epoch, "0"); resp2.StatusCode != http.StatusGone {
		t.Fatalf("post-snapshot tail at old epoch: %d, want 410", resp2.StatusCode)
	}
}
