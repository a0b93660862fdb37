package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"anna"
	"anna/internal/cluster/faultproxy"
	"anna/internal/httpx"
	"anna/internal/slo"
	"anna/internal/trace"
)

// postSearchTagged posts a search with an explicit X-Request-ID, which
// forces a router-side trace.
func postSearchTagged(t *testing.T, h http.Handler, id string, req searchRequest) *httptest.ResponseRecorder {
	t.Helper()
	b, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(b))
	r.Header.Set(HeaderRequestID, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// routerTrace fetches one trace from the router's own debug endpoint.
func routerTrace(t *testing.T, h http.Handler, id string) (tr *trace.Trace, shardTraces map[string]json.RawMessage) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Trace       *trace.Trace               `json:"trace"`
		ShardTraces map[string]json.RawMessage `json:"shard_traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Trace, resp.ShardTraces
}

// hopsFor filters a trace's hops to one shard.
func hopsFor(tr *trace.Trace, shard int) []trace.Hop {
	var out []trace.Hop
	for _, h := range tr.Hops {
		if h.Shard == shard {
			out = append(out, h)
		}
	}
	return out
}

// A tagged request that rides a retry must show both attempts: the
// failed primary and the winning retry, attributed to the same shard.
func TestTraceRecordsRetryHops(t *testing.T) {
	rt, proxies := faultedShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
		staticSearchShard([]searchResult{{ID: 2, Score: 0.8}}),
	}, fastOpts())
	t.Cleanup(rt.Close)
	proxies[0].Script(faultproxy.Fault{Mode: faultproxy.Err5xx})
	h := rt.Handler()

	rec := postSearchTagged(t, h, "retry-trace-1", searchRequest{Queries: [][]float32{{0}}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	if got := rec.Header().Get(HeaderRequestID); got != "retry-trace-1" {
		t.Fatalf("request ID not echoed: %q", got)
	}

	tr, _ := routerTrace(t, h, "retry-trace-1")
	h0 := hopsFor(tr, 0)
	if len(h0) != 2 {
		t.Fatalf("shard 0 hops = %+v, want failed primary + winning retry", h0)
	}
	if h0[0].Kind != "primary" || h0[0].Winner || h0[0].Status != http.StatusBadGateway {
		t.Errorf("first shard-0 hop %+v, want non-winning primary with 502", h0[0])
	}
	if h0[1].Kind != "retry" || !h0[1].Winner || h0[1].Attempt != 2 {
		t.Errorf("second shard-0 hop %+v, want winning retry attempt 2", h0[1])
	}
	h1 := hopsFor(tr, 1)
	if len(h1) != 1 || h1[0].Kind != "primary" || !h1[0].Winner {
		t.Errorf("shard 1 hops %+v, want one winning primary", h1)
	}
}

// A hedged race whose primary is canceled must record exactly one
// winning hop for the shard — the hedge — and no span for the loser.
func TestHedgeLoserRecordsExactlyOneWinningHop(t *testing.T) {
	opt := fastOpts()
	opt.Timeout = 2 * time.Second // primary must be canceled, not timed out
	opt.HedgeAfter = 10 * time.Millisecond
	opt.HedgeMax = 10 * time.Millisecond
	rt, proxies := faultedShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
	}, opt)
	t.Cleanup(rt.Close)
	// The primary hangs far past the hedge delay; the hedge passes
	// cleanly and wins while the primary is still in flight.
	proxies[0].Script(faultproxy.Fault{Mode: faultproxy.Delay, Latency: time.Second})

	rec := postSearchTagged(t, rt.Handler(), "hedge-trace-1", searchRequest{Queries: [][]float32{{0}}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	tr, _ := routerTrace(t, rt.Handler(), "hedge-trace-1")
	h0 := hopsFor(tr, 0)
	if len(h0) != 1 {
		t.Fatalf("shard 0 hops = %+v, want exactly the winning hedge (no orphan loser span)", h0)
	}
	if h0[0].Kind != "hedge" || !h0[0].Winner || h0[0].Attempt != 1 {
		t.Errorf("hop %+v, want winning hedge sharing attempt 1", h0[0])
	}
	if rt.shards[0].Stats().Hedges.Load() != 1 {
		t.Errorf("hedges = %d, want 1", rt.shards[0].Stats().Hedges.Load())
	}
}

// A breaker fast-fail sends nothing, but the refusal must still appear
// as an attributed hop in the trace.
func TestBreakerFastFailRecordsAttributedHop(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(origin.Close)
	opt := fastOpts()
	opt.Retries = -1
	opt.BreakerFailures = 1
	opt.BreakerCooldown = time.Minute
	s := NewShard(3, origin.URL, opt)

	if _, _, err := s.Do(context.Background(), http.MethodGet, "/search", nil, true); err != nil {
		t.Fatalf("first request should surface the 500, not a transport error: %v", err)
	}
	if s.Breaker().State() != "open" {
		t.Fatalf("breaker state %s after failure, want open", s.Breaker().State())
	}

	tr := trace.New("fastfail-1")
	ctx := trace.NewContext(context.Background(), tr)
	if _, _, err := s.Do(ctx, http.MethodGet, "/search", nil, true); !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	if len(tr.Hops) != 1 {
		t.Fatalf("hops = %+v, want one fastfail hop", tr.Hops)
	}
	h := tr.Hops[0]
	if h.Shard != 3 || h.Kind != "fastfail" || h.Breaker != "open" || h.Err == "" {
		t.Errorf("fastfail hop %+v, want shard 3, breaker open, error set", h)
	}
}

// rvecs returns n random dim-d vectors.
func rvecs(seed int64, n, d int) [][]float32 {
	rnd := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = rnd.Float32()
		}
		out[i] = v
	}
	return out
}

// annaShard builds a real in-process annaserve shard.
func annaShard(t *testing.T, seed int64) http.Handler {
	t.Helper()
	const dim = 4
	idx, err := anna.BuildIndex(rvecs(seed, 120, dim), anna.L2, anna.BuildOptions{
		NClusters: 4, M: 2, Ks: 16, TrainIters: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := anna.NewServer(idx)
	srv.ScrapeEvery = -1 // no background scraper in the shard under test
	t.Cleanup(srv.Close)
	return srv.Handler()
}

// The acceptance path: real annaserve shards behind faultproxies, a
// delay injected on one shard, and the router's stitched trace must
// attribute the query's latency to that shard's hop — with the
// shard-side traces joined under the same ID and naming their parent
// hop.
func TestStitchedTraceAttributesDelayedShard(t *testing.T) {
	const delay = 150 * time.Millisecond
	opt := fastOpts()
	opt.Timeout = 2 * time.Second
	rt, proxies := faultedShardSet(t, []http.Handler{
		annaShard(t, 1),
		annaShard(t, 2),
	}, opt)
	t.Cleanup(rt.Close)
	// Shard 0 rides a retry (5xx then clean); shard 1 is slow.
	proxies[0].Script(faultproxy.Fault{Mode: faultproxy.Err5xx})
	proxies[1].Script(faultproxy.Fault{Mode: faultproxy.Delay, Latency: delay})
	h := rt.Handler()

	const id = "stitch-1"
	rec := postSearchTagged(t, h, id, searchRequest{Queries: [][]float32{{0.1, 0.2, 0.3, 0.4}}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d: %s", rec.Code, rec.Body.String())
	}

	tr, shardTraces := routerTrace(t, h, id)
	if tr.ID != id {
		t.Fatalf("trace id %q", tr.ID)
	}
	// The delayed shard's winning hop carries the injected latency; the
	// healthy shard's hops are far quicker, so the breakdown attributes
	// the query's latency where it belongs.
	var slow, fast time.Duration
	for _, hp := range hopsFor(tr, 1) {
		if hp.Winner {
			slow = hp.Duration
		}
	}
	for _, hp := range hopsFor(tr, 0) {
		if hp.Winner {
			fast = hp.Duration
		}
	}
	if slow < delay {
		t.Errorf("delayed shard's winning hop took %v, want >= %v", slow, delay)
	}
	if fast >= delay {
		t.Errorf("healthy shard's winning hop took %v, want well under the %v injection", fast, delay)
	}
	// Retry spans survive into the stitched view.
	if h0 := hopsFor(tr, 0); len(h0) != 2 || h0[1].Kind != "retry" {
		t.Errorf("shard 0 hops %+v, want failed primary + retry", h0)
	}
	// Both shard-side traces stitched in, keyed by shard index, each a
	// child of its hop (parent "shard<i>") under the same trace ID.
	for _, idx := range []int{0, 1} {
		raw, ok := shardTraces[strconv.Itoa(idx)]
		if !ok {
			t.Fatalf("no stitched trace for shard %d (got %v)", idx, shardTraces)
		}
		var st trace.Trace
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("shard %d stitched trace: %v", idx, err)
		}
		if st.ID != id {
			t.Errorf("shard %d trace id %q, want %q", idx, st.ID, id)
		}
		if want := fmt.Sprintf("shard%d", idx); st.Parent != want {
			t.Errorf("shard %d trace parent %q, want %q", idx, st.Parent, want)
		}
	}
}

// The latency SLO must fire under sustained injected delay and clear
// after the fault does: ok -> firing -> ok, end to end through the
// router's scraper and burn-rate engine.
func TestLatencySLOFiresAndClears(t *testing.T) {
	opt := fastOpts()
	opt.Timeout = 2 * time.Second
	handlers := []http.Handler{staticSearchShard([]searchResult{{ID: 1, Score: 0.9}})}
	bases := make([]string, len(handlers))
	proxies := make([]*faultproxy.Proxy, len(handlers))
	for i, hh := range handlers {
		origin := httptest.NewServer(hh)
		t.Cleanup(origin.Close)
		// Rand pinned to 0 makes SetDefault(f, 1) inject deterministically.
		p := faultproxy.New(origin.URL, faultproxy.Options{Rand: func() float64 { return 0 }})
		url, done := p.Start()
		t.Cleanup(done)
		bases[i] = url
		proxies[i] = p
	}
	rt, err := New(Config{
		Shards: bases, Shard: opt, Limits: httpx.Limits{DefaultK: 10, DefaultW: 32},
		Options: httpx.Options{
			ScrapeEvery:   20 * time.Millisecond,
			SLOLatencyP99: 40 * time.Millisecond,
			SLOOptions: slo.Options{
				FastShort: 100 * time.Millisecond, FastLong: 300 * time.Millisecond,
				SlowShort: 200 * time.Millisecond, SlowLong: 600 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()

	state := func() slo.State {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/alerts", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/alerts status %d", rec.Code)
		}
		var resp struct {
			SLOs []slo.Alert `json:"slos"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for _, a := range resp.SLOs {
			if a.SLO == "latency_p99" {
				return a.State
			}
		}
		t.Fatal("latency_p99 SLO not in /alerts")
		return ""
	}
	drive := func(wantState slo.State, deadline time.Duration) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			postSearch(t, h, searchRequest{Queries: [][]float32{{0}}, K: 4})
			if state() == wantState {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}

	// Healthy phase: sub-bound latencies, alert stays ok.
	if !drive(slo.OK, 2*time.Second) {
		t.Fatalf("healthy phase never reported ok (state %s)", state())
	}
	// Sustained fault: every request delayed past the 40ms bound.
	proxies[0].SetDefault(faultproxy.Fault{Mode: faultproxy.Delay, Latency: 80 * time.Millisecond}, 1)
	if !drive(slo.Firing, 10*time.Second) {
		t.Fatalf("latency SLO never fired under sustained delay (state %s)", state())
	}
	// Fault clears: the windows drain and the alert must clear too.
	proxies[0].SetDefault(faultproxy.Fault{}, 0)
	if !drive(slo.OK, 10*time.Second) {
		t.Fatalf("latency SLO never cleared after the fault (state %s)", state())
	}
}
