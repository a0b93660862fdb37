package anna

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"anna/internal/metrics"
	"anna/internal/qos"
)

// postJSONHdr posts body with extra headers.
func postJSONHdr(t *testing.T, url string, body any, hdr map[string]string) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func searchOne(t *testing.T, url string, q []float32, w, k int) []searchResult {
	t.Helper()
	resp := postJSON(t, url+"/search", searchRequest{Queries: [][]float32{q}, W: w, K: k})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("got %d result rows for 1 query", len(out.Results))
	}
	return out.Results[0]
}

// Coalesced serving returns exactly what per-request serving returns,
// whatever the load — the acceptance pin for the dynamic batcher. One
// client never finds the engine slots busy (every request is its own
// batch); 64 clients released together behind two busy slots must share
// batches; both match the direct path bit for bit.
func TestBatchedServingBitExact(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)

	// Reference: per-request execution, batcher and cache disabled.
	ref := NewServer(idx)
	ref.BatchMaxConcurrent, ref.CacheSize = -1, -1
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	want := make([][]searchResult, len(queries))
	for i, q := range queries {
		want[i] = searchOne(t, refTS.URL, q, 16, 10)
	}

	const n, slots = 64, 2
	for _, clients := range []int{1, 8, n} {
		t.Run(strconv.Itoa(clients), func(t *testing.T) {
			s := NewServer(idx)
			s.CacheSize = -1                         // isolate the batcher
			s.TraceSampleEvery, s.SlowQuery = -1, -1 // traced requests bypass it
			s.BatchMaxConcurrent = slots
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()

			// With one request per client, stall the engine (it runs under
			// the read lock) until every request is in: two hold the slots,
			// the rest are parked and must leave in shared batches.
			gated := clients == n
			if gated {
				s.mu.Lock()
			}
			// n single-query requests cycling the query set, spread over
			// the clients.
			var wg sync.WaitGroup
			got := make([][]searchResult, n)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < n; i += clients {
						got[i] = searchOne(t, ts.URL, queries[i%len(queries)], 16, 10)
					}
				}(c)
			}
			if gated {
				for b := s.batcher.Load(); b == nil || b.QueueDepth() < n-slots; b = s.batcher.Load() {
					runtime.Gosched()
				}
				s.mu.Unlock()
			}
			wg.Wait()

			for i := 0; i < n; i++ {
				w := want[i%len(queries)]
				if len(got[i]) != len(w) {
					t.Fatalf("request %d: %d results, want %d", i, len(got[i]), len(w))
				}
				for j := range w {
					if got[i][j] != w[j] {
						t.Errorf("request %d result %d: batched %+v, unbatched %+v", i, j, got[i][j], w[j])
					}
				}
			}
			flushes := s.m.flushes.Value()
			switch {
			case clients == 1 && flushes != n:
				t.Errorf("%d engine batches for %d sequential requests, want one each", flushes, n)
			case gated && flushes != slots+1:
				t.Errorf("%d engine batches, want %d: one per held slot, one for the %d parked behind them", flushes, slots+1, n-slots)
			case flushes == 0 || flushes > n:
				t.Errorf("%d engine batches for %d requests (batcher not on the path?)", flushes, n)
			}
			t.Logf("%d clients: %d requests rode %d engine batches", clients, n, flushes)
		})
	}
}

// The result cache serves repeats without touching the engine, and /add
// invalidates it — a repeated query sees the new vector, never the
// cached pre-add results.
func TestResultCacheInvalidatedByAdd(t *testing.T) {
	s, ts, _ := newTestServer(t)
	q := clusteredVectors(1, 32, 24, 99)[0]

	first := searchOne(t, ts.URL, q, 24, 10)
	again := searchOne(t, ts.URL, q, 24, 10)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("repeat query diverged: %+v vs %+v", first[i], again[i])
		}
	}
	c := s.cache.Load()
	if c == nil {
		t.Fatal("cache not enabled by default")
	}
	if hits, _, _, _ := c.Stats(); hits == 0 {
		t.Fatal("repeat of an identical query did not hit the cache")
	}

	// Ingest the query vector itself: the exact duplicate must now
	// appear in the results, so serving the cached pre-add row would be
	// a visible staleness bug.
	resp := postJSON(t, ts.URL+"/add", addRequest{Vectors: [][]float32{q}})
	var added addResponse
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	after := searchOne(t, ts.URL, q, 24, 10)
	found := false
	for _, r := range after {
		if r.ID == added.FirstID {
			found = true
		}
	}
	if !found {
		t.Errorf("exact duplicate id %d missing from post-add results %+v (stale cache?)", added.FirstID, after)
	}
	if _, _, _, inv := c.Stats(); inv != 1 {
		t.Errorf("cache invalidations %d, want 1", inv)
	}
}

// Concurrent /search and /add traffic under the batcher and cache: run
// under -race in CI. After the dust settles, a search for the last
// added vector must see it (no stale cached row survives).
func TestConcurrentSearchAddUnderBatcher(t *testing.T) {
	s, ts, base := newTestServer(t)
	_ = s
	extra := clusteredVectors(24, 32, 24, 7)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A small fixed query set maximizes cache hits racing the
				// invalidations.
				searchOne(t, ts.URL, base[(g+i)%8], 16, 5)
			}
		}(g)
	}
	var lastID int64
	for i := 0; i < len(extra); i++ {
		resp := postJSON(t, ts.URL+"/add", addRequest{Vectors: [][]float32{extra[i]}})
		var added addResponse
		if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		lastID = added.FirstID
	}
	close(stop)
	wg.Wait()

	res := searchOne(t, ts.URL, extra[len(extra)-1], 24, 10)
	found := false
	for _, r := range res {
		if r.ID == lastID {
			found = true
		}
	}
	if !found {
		t.Errorf("last added vector %d missing from its own search results %+v", lastID, res)
	}
}

// The pooled-scratch pin: a single-query request on the direct path
// stays within a bounded allocation budget: 67 measured, of which the
// wire codec contributes none and the result rows one arena (anna.Result
// is the engine's own type, so they reach the reply uncopied). The bound
// holds under -race, where sync.Pool drops a quarter of its Puts and the
// scratch is rebuilt that often (72–74 measured).
func TestSearchAllocsPerRequest(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.TraceSampleEvery = -1
	s.SlowQuery = -1
	s.BatchMaxConcurrent = -1 // direct path: no batcher goroutine handoff
	s.CacheSize = -1
	h := s.Handler()

	body, err := json.Marshal(searchRequest{Queries: [][]float32{base[3]}, W: 8, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	for i := 0; i < 16; i++ {
		run() // warm the pools and dynamic label caches
	}
	avg := testing.AllocsPerRun(100, run)
	t.Logf("allocs per /search request: %.1f", avg)
	if avg > 76 {
		t.Errorf("allocs per request %.1f, want <= 76 (scratch pooling, the wire codec or the uncopied rows regressed)", avg)
	}
}

// Cache hits skip the engine entirely, so their allocation budget is
// tighter still: 32 measured (43 before internal/wire; 36–39 under -race).
func TestSearchAllocsCacheHit(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.TraceSampleEvery = -1
	s.SlowQuery = -1
	s.BatchMaxConcurrent = -1
	h := s.Handler()

	body, err := json.Marshal(searchRequest{Queries: [][]float32{base[3]}, W: 8, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	for i := 0; i < 16; i++ {
		run()
	}
	if hits, _, _, _ := s.cache.Load().Stats(); hits == 0 {
		t.Fatal("warmup never hit the cache")
	}
	avg := testing.AllocsPerRun(100, run)
	t.Logf("allocs per cache-hit request: %.1f", avg)
	if avg > 41 {
		t.Errorf("allocs per cache-hit request %.1f, want <= 41", avg)
	}
}

// 429 responses carry the queue depth and a jittered Retry-After.
func TestOverloadResponseShape(t *testing.T) {
	s, ts, base := newTestServer(t)
	s.MaxInFlight = 1
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: [][]float32{base[0]}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Errorf("Retry-After %q, want an integer in [1,3]", resp.Header.Get("Retry-After"))
	}
	var body struct {
		Error             string `json:"error"`
		QueueDepth        *int   `json:"queue_depth"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || body.QueueDepth == nil || body.RetryAfterSeconds != ra {
		t.Errorf("429 body %+v does not carry error/queue_depth/retry_after_seconds", body)
	}
	if n := s.m.rejectDepth.Count(); n != 1 {
		t.Errorf("rejected-queue-depth observations %d, want 1", n)
	}
}

// Per-tenant token buckets reject over-quota traffic with 429 and a
// tenant-labelled counter; other tenants are unaffected.
func TestTenantQuota(t *testing.T) {
	s, ts, base := newTestServer(t)
	tenants, err := qos.ParseTenants("key-slow=rate:0.0001,burst:2,name:slow;key-fast=name:fast")
	if err != nil {
		t.Fatal(err)
	}
	s.Tenants = tenants
	body := searchRequest{Queries: [][]float32{base[0]}}

	for i := 0; i < 2; i++ {
		resp := postJSONHdr(t, ts.URL+"/search", body, map[string]string{"X-API-Key": "key-slow"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postJSONHdr(t, ts.URL+"/search", body, map[string]string{"X-API-Key": "key-slow"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("quota 429 without Retry-After")
	}
	var e map[string]any
	json.NewDecoder(resp.Body).Decode(&e)
	if msg, _ := e["error"].(string); msg == "" {
		t.Errorf("quota 429 body %v has no error", e)
	}

	// The other tenant (and the Bearer form of the same key) still flows.
	ok := postJSONHdr(t, ts.URL+"/search", body, map[string]string{"Authorization": "Bearer key-fast"})
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("unthrottled tenant got %d", ok.StatusCode)
	}

	throttled := s.m.reg.Counter("anna_throttled_requests_total",
		"Requests rejected by per-tenant token-bucket quota.",
		metrics.Label{Key: "tenant", Value: "slow"})
	if throttled.Value() != 1 {
		t.Errorf("throttled counter %d, want 1", throttled.Value())
	}
}

// Multi-query requests never ride the batcher (they are already engine
// batches) and still serve partial cache hits per query.
func TestMultiQueryPartialCacheHits(t *testing.T) {
	s, ts, _ := newTestServer(t)
	qs := clusteredVectors(4, 32, 24, 55)

	// Prime the cache with two of the four queries.
	searchOne(t, ts.URL, qs[0], 16, 5)
	searchOne(t, ts.URL, qs[2], 16, 5)

	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: qs, W: 16, K: 5})
	defer resp.Body.Close()
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d rows for 4 queries", len(out.Results))
	}
	for i, row := range out.Results {
		single := searchOne(t, ts.URL, qs[i], 16, 5)
		for j := range single {
			if row[j] != single[j] {
				t.Errorf("query %d result %d: multi %+v, single %+v", i, j, row[j], single[j])
			}
		}
	}
	hits, _, _, _ := s.cache.Load().Stats()
	if hits < 2 {
		t.Errorf("cache hits %d, want >= 2 (primed queries should hit inside the multi-query request)", hits)
	}
}
