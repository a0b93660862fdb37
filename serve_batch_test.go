package anna

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

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

// search posts one /search of queries with extra headers and returns
// its result rows.
func search(t *testing.T, url string, queries [][]float32, w, k int, hdr map[string]string) [][]searchResult {
	t.Helper()
	resp := postJSONHdr(t, url+"/search", searchRequest{Queries: queries, W: w, K: k}, hdr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("got %d result rows for %d queries", len(out.Results), len(queries))
	}
	return out.Results
}

// waitFor polls cond until it holds, failing the test after a few
// seconds with what it was waiting for.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// Coalesced serving returns exactly what per-request serving returns,
// whatever the load and whatever the request — the acceptance pin for
// the one serving path. One client never finds the engine slots busy
// (every request is its own batch). 64 clients released together behind
// two busy slots must share batches, traced or not, and 1024-query
// requests arriving then park behind the same two slots and run as
// batches of their own: the slots bound every engine batch. All of it
// matches per-request execution bit for bit, and every query is counted
// in exactly one engine batch.
func TestBatchedServingBitExact(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)

	// Reference: per-request execution, coalescing and cache off.
	ref := NewServer(idx)
	ref.BatchMaxConcurrent, ref.CacheSize = -1, -1
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	want := make([][]searchResult, len(queries))
	for i, q := range queries {
		want[i] = searchOne(t, refTS.URL, q, 16, 10)
	}
	check := func(t *testing.T, what string, got, want []searchResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("%s result %d: batched %+v, unbatched %+v", what, j, got[j], want[j])
			}
		}
	}

	const n, slots, big = 64, 2, 1024
	bigReq := make([][]float32, big)
	for i := range bigReq {
		bigReq[i] = queries[i%len(queries)]
	}
	for _, col := range []struct {
		name    string
		clients int
		traced  bool // every request carries X-Request-ID
		bigs    int  // 1024-query requests sent behind the parked singles
	}{
		{"1", 1, false, 0},
		{"8", 8, false, 0},
		{"64", n, false, 0},
		{"64-traced", n, true, 0},
		{"64-multi", n, false, 2},
	} {
		t.Run(col.name, func(t *testing.T) {
			s := NewServer(idx)
			s.CacheSize = -1 // isolate the batcher
			s.BatchMaxConcurrent = slots
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()

			// With one request per client, stall the engine (it runs under
			// the read lock) until every request is in: two hold the slots,
			// the rest are parked and must leave in shared batches.
			gated, locked := col.clients == n, false
			if gated {
				s.mu.Lock()
				locked = true
				defer func() {
					if locked { // a wait below failed
						s.mu.Unlock()
					}
				}()
			}
			hdr := func(i int) map[string]string {
				if !col.traced {
					return nil
				}
				return map[string]string{"X-Request-ID": fmt.Sprintf("bitexact-%d", i)}
			}
			// n single-query requests cycling the query set, spread over
			// the clients.
			var wg sync.WaitGroup
			got := make([][]searchResult, n)
			for c := 0; c < col.clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < n; i += col.clients {
						got[i] = search(t, ts.URL, [][]float32{queries[i%len(queries)]}, 16, 10, hdr(i))[0]
					}
				}(c)
			}
			gotBig := make([][][]searchResult, col.bigs)
			if gated {
				waitFor(t, fmt.Sprintf("%d single queries are parked behind %d held slots", n-slots, slots),
					func() bool { return s.batcher.QueueDepth() == n-slots })
				for b := range gotBig {
					wg.Add(1)
					go func(b int) {
						defer wg.Done()
						gotBig[b] = search(t, ts.URL, bigReq, 16, 10, nil)
					}(b)
				}
				waitFor(t, fmt.Sprintf("%d multi-query requests are parked whole, beside the singles", col.bigs),
					func() bool { return s.batcher.QueueDepth() == n-slots+col.bigs*big })
				if f := s.m.flushes.Value(); f != slots {
					t.Errorf("%d engine batches started with every slot held, want %d", f, slots)
				}
				s.mu.Unlock()
				locked = false
			}
			wg.Wait()

			for i := 0; i < n; i++ {
				check(t, fmt.Sprintf("request %d", i), got[i], want[i%len(queries)])
			}
			for b, rows := range gotBig {
				for i, row := range rows {
					check(t, fmt.Sprintf("big request %d query %d", b, i), row, want[i%len(queries)])
				}
			}
			flushes := s.m.flushes.Value()
			switch {
			case col.clients == 1 && flushes != n:
				t.Errorf("%d engine batches for %d sequential requests, want one each", flushes, n)
			case gated && flushes != uint64(slots+1+col.bigs):
				// The parked singles leave together; a member larger than
				// the batch cap runs alone.
				t.Errorf("%d engine batches, want %d: one per held slot, one for the %d singles parked behind them, one per big request",
					flushes, slots+1+col.bigs, n-slots)
			case flushes == 0 || flushes > n+uint64(col.bigs):
				t.Errorf("%d engine batches for %d requests (batcher not on the path?)", flushes, n+col.bigs)
			}
			if q := s.m.batchSize.Sum(); q != float64(n+col.bigs*big) {
				t.Errorf("engine batches held %v queries, want every one of the %d served", q, n+col.bigs*big)
			}
			if col.traced {
				// A traced request reports the engine batch it rode in:
				// its stage spans and its size.
				parked := 0
				for i := 0; i < n; i++ {
					tr := getTrace(t, ts.URL, fmt.Sprintf("bitexact-%d", i))
					if tr.SpanDuration("select") <= 0 || tr.SpanDuration("scan") <= 0 || tr.Scanned <= 0 {
						t.Errorf("trace %d: zero-valued stage spans: %+v", i, tr.Spans)
					}
					switch tr.Batch {
					case 1:
					case n - slots:
						parked++
					default:
						t.Errorf("trace %d: batch %d, want 1 (a held slot) or %d (the parked batch)", i, tr.Batch, n-slots)
					}
				}
				if parked != n-slots {
					t.Errorf("%d traces rode the parked batch, want %d", parked, n-slots)
				}
			}
			t.Logf("%d clients, %d big requests: %d requests rode %d engine batches", col.clients, col.bigs, n+col.bigs, flushes)
		})
	}
}

// Close waits for every engine batch in flight, multi-query requests
// included, so the index underneath can be snapshotted and torn down
// without racing a search; a search that arrives after Close is
// refused 503 and counted as a server error.
func TestCloseDrainsInFlightSearch(t *testing.T) {
	idx, _, queries := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.CacheSize = -1
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := make([][]float32, 1024)
	for i := range big {
		big[i] = queries[i%len(queries)]
	}
	s.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	done := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: big, W: 16, K: 10})
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "the 1024-query request's engine batch has started", func() bool { return s.m.flushes.Value() == 1 })
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an engine batch was blocked under the index lock")
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Unlock()
	locked = false
	<-closed
	if q := s.m.queries.Value(); q != uint64(len(big)) {
		t.Errorf("Close returned with %d of %d queries searched", q, len(big))
	}
	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight search answered %d, want 200", code)
	}

	resp := postJSON(t, ts.URL+"/search", searchRequest{Queries: queries[:1], W: 16, K: 10})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("search after Close answered %d, want 503", resp.StatusCode)
	}
	refused := s.m.reg.Counter("anna_http_requests_total", "Requests by handler and status code.",
		metrics.Label{Key: "handler", Value: "search"}, metrics.Label{Key: "code", Value: "503"})
	if refused.Value() != 1 {
		t.Errorf("503s counted %d, want 1", refused.Value())
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

// The pooled-scratch pin: a single-query request with coalescing off
// (its member runs inline, on the handler's goroutine) stays within a bounded allocation budget: 67 measured, of which the
// wire codec contributes none and the result rows one arena (anna.Result
// is the engine's own type, so they reach the reply uncopied). The bound
// holds under -race, where sync.Pool drops a quarter of its Puts and the
// scratch is rebuilt that often (72–74 measured).
func TestSearchAllocsPerRequest(t *testing.T) {
	idx, base, _ := buildTestIndex(t, L2, 16)
	s := NewServer(idx)
	s.TraceSampleEvery = -1
	s.SlowQuery = -1
	s.BatchMaxConcurrent = -1 // inline: no batcher goroutine handoff
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

// A multi-query request serves partial cache hits per query; only its
// misses ride the batcher, as one member.
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
