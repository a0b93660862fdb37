package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"anna/internal/httpx"
	"anna/internal/qos"
	"anna/internal/wire"
)

// fastOpts are shard options tuned so failure tests run in
// milliseconds: tight timeouts, minimal backoff, a generous retry
// budget (budget exhaustion has its own test).
func fastOpts() ShardOptions {
	return ShardOptions{
		Timeout:          200 * time.Millisecond,
		AddTimeout:       200 * time.Millisecond,
		Retries:          2,
		Backoff:          qos.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 1, Jitter: 0},
		RetryBudgetRatio: 5, // effectively unlimited
		RetryBudgetBurst: 1000,
		BreakerFailures:  1000, // breaker behavior has its own tests
		BreakerCooldown:  time.Minute,
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Failure()
	}
	if b.State() != "open" || b.Allow() {
		t.Fatalf("after 3 failures: state=%s", b.State())
	}
	if b.Opens() != 1 {
		t.Fatalf("opens=%d", b.Opens())
	}
	// Cooldown not yet elapsed: still failing fast.
	now = now.Add(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("open breaker admitted before cooldown")
	}
	// Cooldown elapsed: exactly one probe.
	now = now.Add(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe after cooldown")
	}
	if b.State() != "half-open" {
		t.Fatalf("state=%s, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: re-open for a fresh cooldown.
	b.Failure()
	if b.State() != "open" || b.Allow() {
		t.Fatalf("after failed probe: state=%s", b.State())
	}
	// Next probe succeeds: closed again, failure count reset.
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("after successful probe: state=%s", b.State())
	}
	// 4xx-style outcomes (Success) keep resetting the streak.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != "closed" {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestShardRetriesRecoverFrom5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()
	s := NewShard(0, ts.URL, fastOpts())
	status, body, err := s.Do(context.Background(), http.MethodPost, "/search", []byte(`{}`), true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("body=%q", body)
	}
	if got := s.Stats().Retries.Load(); got != 2 {
		t.Fatalf("retries=%d, want 2", got)
	}
}

func TestShardDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad dim", http.StatusBadRequest)
	}))
	defer ts.Close()
	s := NewShard(0, ts.URL, fastOpts())
	status, _, err := s.Do(context.Background(), http.MethodPost, "/search", []byte(`{}`), true)
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
	if s.Breaker().State() != "closed" {
		t.Fatal("4xx counted as shard failure")
	}
}

func TestShardDoesNotRetryAdds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	s := NewShard(0, ts.URL, fastOpts())
	status, _, err := s.Do(context.Background(), http.MethodPost, "/add", []byte(`{}`), false)
	if err != nil || status != http.StatusInternalServerError {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("non-idempotent request retried: %d calls", calls.Load())
	}
}

func TestShardRetryBudgetBoundsAmplification(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	opt := fastOpts()
	opt.Retries = 10
	opt.RetryBudgetRatio = 0.1 // 10 requests earn one retry
	opt.RetryBudgetBurst = 1
	s := NewShard(0, ts.URL, opt)
	for i := 0; i < 10; i++ {
		s.Do(context.Background(), http.MethodPost, "/search", []byte(`{}`), true)
	}
	// 10 requests deposited 1.0 tokens total: at most 1 retry happened
	// across all of them, not 10×10.
	if got := s.Stats().Retries.Load(); got > 1 {
		t.Fatalf("retries=%d despite exhausted budget", got)
	}
	if calls.Load() > 11 {
		t.Fatalf("%d attempts for 10 requests — budget not enforced", calls.Load())
	}
}

func TestShardBreakerFastFails(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	opt := fastOpts()
	opt.Retries = -1
	opt.BreakerFailures = 3
	opt.BreakerCooldown = time.Hour
	s := NewShard(0, ts.URL, opt)
	for i := 0; i < 3; i++ {
		if _, _, err := s.Do(context.Background(), http.MethodPost, "/search", []byte(`{}`), true); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	sent := calls.Load()
	// Breaker open: requests fail fast without touching the network.
	for i := 0; i < 5; i++ {
		_, _, err := s.Do(context.Background(), http.MethodPost, "/search", []byte(`{}`), true)
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("open breaker: err=%v, want ErrShardDown", err)
		}
	}
	if calls.Load() != sent {
		t.Fatalf("open breaker still sent requests (%d -> %d)", sent, calls.Load())
	}
	if got := s.Stats().FastFails.Load(); got != 5 {
		t.Fatalf("fastFails=%d, want 5", got)
	}
}

func TestShardHedgesSlowRequests(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The primary is pathologically slow; the hedge answers.
			time.Sleep(2 * time.Second)
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()
	opt := fastOpts()
	opt.Timeout = 5 * time.Second
	opt.HedgeAfter = 20 * time.Millisecond
	opt.HedgeMax = 30 * time.Millisecond
	s := NewShard(0, ts.URL, opt)
	start := time.Now()
	status, _, err := s.Do(context.Background(), http.MethodPost, "/search", []byte(`{}`), true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("status=%d err=%v", status, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue the slow primary (%v)", elapsed)
	}
	if got := s.Stats().Hedges.Load(); got != 1 {
		t.Fatalf("hedges=%d, want 1", got)
	}
}

// fakeShardSet stands up n httptest servers with per-shard handlers and
// returns a router over them.
func fakeShardSet(t *testing.T, handlers []http.Handler, opt ShardOptions) *Router {
	t.Helper()
	bases := make([]string, len(handlers))
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		bases[i] = ts.URL
	}
	rt, err := New(Config{Shards: bases, Shard: opt, Limits: httpx.Limits{DefaultK: 10, DefaultW: 32}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// The fake shards are built on wire, like real ones: they decode
// whichever codec the request's Content-Type names and answer in it, so
// the same fakes serve a router (frames) and a test poking them by hand
// (JSON).
type (
	searchRequest  = wire.SearchRequest
	searchResponse = wire.SearchReply
	searchResult   = wire.Result
	addRequest     = wire.AddRequest
	addResponse    = wire.AddReply
)

// wireShard serves path with serve, which gets the request's codec and
// body and returns the reply body to send back in that codec.
func wireShard(path string, serve func(codec wire.Codec, body []byte) ([]byte, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			http.NotFound(w, r)
			return
		}
		codec := wire.CodecFor(r.Header.Get("Content-Type"))
		body, err := io.ReadAll(r.Body)
		if err == nil {
			body, err = serve(codec, body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", codec.ContentType())
		w.Write(body)
	})
}

// staticSearchShard answers every query with a fixed local result list.
func staticSearchShard(results []searchResult) http.Handler {
	return wireShard("/search", func(codec wire.Codec, body []byte) ([]byte, error) {
		var req searchRequest
		if err := codec.DecodeSearchRequest(&req, body, 1024); err != nil {
			return nil, err
		}
		out := searchResponse{Results: make([][]searchResult, len(req.Queries))}
		k := req.K
		if k > len(results) {
			k = len(results)
		}
		for q := range out.Results {
			out.Results[q] = results[:k]
		}
		return codec.AppendSearchReply(nil, &out)
	})
}

func postSearch(t *testing.T, h http.Handler, req searchRequest) (*httptest.ResponseRecorder, searchResponse) {
	t.Helper()
	b, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(b)))
	var resp searchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return rec, resp
}

func TestRouterMergesShardTopK(t *testing.T) {
	rt := fakeShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}, {ID: 2, Score: 0.5}}),
		staticSearchShard([]searchResult{{ID: 0, Score: 0.8}}),
		staticSearchShard([]searchResult{{ID: 5, Score: 0.95}, {ID: 6, Score: 0.1}}),
	}, fastOpts())
	h := rt.Handler()

	rec, resp := postSearch(t, h, searchRequest{Queries: [][]float32{{0}, {1}}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(HeaderPartial) != "" {
		t.Fatalf("full coverage marked partial: %q", rec.Header().Get(HeaderPartial))
	}
	S := DefaultStride
	want := []searchResult{
		{ID: 2*S + 5, Score: 0.95},
		{ID: 0*S + 1, Score: 0.9},
		{ID: 1*S + 0, Score: 0.8},
		{ID: 0*S + 2, Score: 0.5},
	}
	for q, got := range resp.Results {
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: %+v, want %+v", q, i, got[i], want[i])
			}
		}
	}
}

func TestRouterPartialCoverage(t *testing.T) {
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dead", http.StatusInternalServerError)
	})
	opt := fastOpts()
	opt.Retries = 1
	rt := fakeShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
		down,
		staticSearchShard([]searchResult{{ID: 3, Score: 0.7}}),
	}, opt)
	h := rt.Handler()

	rec, resp := postSearch(t, h, searchRequest{Queries: [][]float32{{0}}, K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded query failed: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderPartial); got != "shards=2/3" {
		t.Fatalf("%s = %q, want shards=2/3", HeaderPartial, got)
	}
	if rt.partials.Value() == 0 {
		t.Fatal("anna_partial_results_total not incremented")
	}
	if len(resp.Results[0]) != 2 {
		t.Fatalf("%d results from 2 live shards", len(resp.Results[0]))
	}
}

func TestRouterAllShardsDown(t *testing.T) {
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dead", http.StatusInternalServerError)
	})
	opt := fastOpts()
	opt.Retries = -1
	rt := fakeShardSet(t, []http.Handler{down, down}, opt)
	rec, _ := postSearch(t, rt.Handler(), searchRequest{Queries: [][]float32{{0}}})
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("total loss answered %d, want 502", rec.Code)
	}
}

func TestRouterRelaysShardValidation(t *testing.T) {
	badReq := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"query 0 has dim 1, index dim 8"}`)
	})
	rt := fakeShardSet(t, []http.Handler{badReq, badReq}, fastOpts())
	rec, _ := postSearch(t, rt.Handler(), searchRequest{Queries: [][]float32{{0}}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("shard 400 relayed as %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("dim")) {
		t.Fatalf("shard error body lost: %s", rec.Body.String())
	}
}

// addShard acks adds with its own local ID counter.
func addShard(next *atomic.Int64) http.Handler {
	return wireShard("/add", func(codec wire.Codec, body []byte) ([]byte, error) {
		var req addRequest
		if err := codec.DecodeAddRequest(&req, body); err != nil {
			return nil, err
		}
		first := next.Add(int64(len(req.Vectors))) - int64(len(req.Vectors))
		return codec.AppendAddReply(nil, addResponse{FirstID: first, Count: len(req.Vectors)}), nil
	})
}

func TestRouterAddRoutesAndRewritesIDs(t *testing.T) {
	var c0, c1 atomic.Int64
	rt := fakeShardSet(t, []http.Handler{addShard(&c0), addShard(&c1)}, fastOpts())
	h := rt.Handler()

	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(addRequest{Vectors: [][]float32{{1, 2}}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("add %d: %d %s", i, rec.Code, rec.Body.String())
		}
		shard := rec.Header().Get(HeaderShard)
		seen[shard] = true
		var ar addResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			t.Fatal(err)
		}
		// The global ID must sit inside the acked shard's stripe.
		sh, err := strconv.Atoi(shard)
		if err != nil {
			t.Fatalf("bad %s header %q", HeaderShard, shard)
		}
		if ar.FirstID/DefaultStride != int64(sh) {
			t.Fatalf("first_id %d not in shard %s stripe", ar.FirstID, shard)
		}
	}
	if !seen["0"] || !seen["1"] {
		t.Fatalf("round-robin did not reach both shards: %v", seen)
	}
}

func TestRouterAddSkipsOpenBreaker(t *testing.T) {
	var c0 atomic.Int64
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dead", http.StatusInternalServerError)
	})
	opt := fastOpts()
	opt.Retries = -1
	opt.BreakerFailures = 1
	opt.BreakerCooldown = time.Hour
	rt := fakeShardSet(t, []http.Handler{down, addShard(&c0)}, opt)
	h := rt.Handler()

	// First add may land on the dead shard (502, not silently retried
	// elsewhere — the send is ambiguous); its failure opens the breaker.
	// Every subsequent add must route around the open breaker and land.
	okAfterOpen := 0
	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(addRequest{Vectors: [][]float32{{1}}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(body)))
		if rt.shards[0].Breaker().State() == "open" && rec.Code == http.StatusOK {
			okAfterOpen++
			if got := rec.Header().Get(HeaderShard); got != "1" {
				t.Fatalf("add landed on dead shard %s", got)
			}
		}
	}
	if okAfterOpen == 0 {
		t.Fatal("no adds routed around the open breaker")
	}
}

func TestRouterReadyzAggregates(t *testing.T) {
	ready := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, "ready")
			return
		}
		http.NotFound(w, r)
	})
	notReady := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	})
	opt := fastOpts()
	opt.Retries = -1
	rt := fakeShardSet(t, []http.Handler{ready, notReady}, opt)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz with 1/2 shards: %d", rec.Code)
	}
	if got := rec.Header().Get(HeaderPartial); got != "shards=1/2" {
		t.Fatalf("%s = %q, want shards=1/2", HeaderPartial, got)
	}

	rt2 := fakeShardSet(t, []http.Handler{notReady, notReady}, opt)
	rec2 := httptest.NewRecorder()
	rt2.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with 0/2 shards: %d", rec2.Code)
	}
}
