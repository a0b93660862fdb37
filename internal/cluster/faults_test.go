package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"anna/internal/cluster/faultproxy"
	"anna/internal/httpx"
	"anna/internal/qos"
)

// faultedShardSet builds a router whose every shard sits behind its own
// faultproxy, returning the proxies for scripting.
func faultedShardSet(t *testing.T, handlers []http.Handler, opt ShardOptions) (*Router, []*faultproxy.Proxy) {
	t.Helper()
	bases := make([]string, len(handlers))
	proxies := make([]*faultproxy.Proxy, len(handlers))
	for i, h := range handlers {
		origin := httptest.NewServer(h)
		t.Cleanup(origin.Close)
		p := faultproxy.New(origin.URL, faultproxy.Options{})
		url, done := p.Start()
		t.Cleanup(done)
		bases[i] = url
		proxies[i] = p
	}
	rt, err := New(Config{Shards: bases, Shard: opt, Limits: httpx.Limits{DefaultK: 10, DefaultW: 32}})
	if err != nil {
		t.Fatal(err)
	}
	return rt, proxies
}

// A burst of injected 5xx on one shard is absorbed by retries: full
// coverage, no partial header, no client-visible error.
func TestRouterRetriesAbsorbInjected5xx(t *testing.T) {
	rt, proxies := faultedShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
		staticSearchShard([]searchResult{{ID: 2, Score: 0.8}}),
	}, fastOpts())
	proxies[0].Script(
		faultproxy.Fault{Mode: faultproxy.Err5xx},
		faultproxy.Fault{Mode: faultproxy.Err5xx},
	)

	rec, resp := postSearch(t, rt.Handler(), searchRequest{Queries: [][]float32{{0}}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	if got := rec.Header().Get(HeaderPartial); got != "" {
		t.Fatalf("retryable faults degraded coverage: %s=%q", HeaderPartial, got)
	}
	if len(resp.Results[0]) != 2 {
		t.Fatalf("%d results, want both shards merged", len(resp.Results[0]))
	}
	if rt.shards[0].Stats().Retries.Load() == 0 {
		t.Fatal("no retry recorded for the faulted shard")
	}
}

// A truncated response (shard dies mid-write) is a failed attempt, not
// a half-decoded result; the retry gets the full answer.
func TestRouterRetriesRecoverFromTruncation(t *testing.T) {
	rt, proxies := faultedShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
		staticSearchShard([]searchResult{{ID: 2, Score: 0.8}}),
	}, fastOpts())
	proxies[1].Script(faultproxy.Fault{Mode: faultproxy.Truncate, TruncateAt: 3})

	rec, resp := postSearch(t, rt.Handler(), searchRequest{Queries: [][]float32{{0}}, K: 4})
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderPartial) != "" {
		t.Fatalf("status=%d partial=%q", rec.Code, rec.Header().Get(HeaderPartial))
	}
	if len(resp.Results[0]) != 2 {
		t.Fatalf("%d results after truncation retry", len(resp.Results[0]))
	}
}

// A hung connection (Drop) is cut by the per-attempt deadline; enough
// of them trip the breaker, and the shard drops out of coverage while
// queries keep answering partially — the full degradation chain.
func TestRouterDegradesThroughTimeoutsToBreaker(t *testing.T) {
	opt := ShardOptions{
		Timeout:          100 * time.Millisecond,
		Retries:          -1,
		Backoff:          qos.Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1, Jitter: 0},
		RetryBudgetRatio: 5,
		RetryBudgetBurst: 100,
		BreakerFailures:  2,
		BreakerCooldown:  time.Hour,
	}
	rt, proxies := faultedShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
		staticSearchShard([]searchResult{{ID: 2, Score: 0.8}}),
	}, opt)
	// Shard 1 stops answering entirely.
	for i := 0; i < 50; i++ {
		proxies[1].Script(faultproxy.Fault{Mode: faultproxy.Drop})
	}

	h := rt.Handler()
	var partials int
	for i := 0; i < 4; i++ {
		rec, resp := postSearch(t, h, searchRequest{Queries: [][]float32{{0}}, K: 4})
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d failed with %d — degradation must not 5xx", i, rec.Code)
		}
		if rec.Header().Get(HeaderPartial) == "shards=1/2" {
			partials++
			if len(resp.Results[0]) != 1 {
				t.Fatalf("partial response carries %d results", len(resp.Results[0]))
			}
		}
	}
	if partials == 0 {
		t.Fatal("no partial responses while a shard was black-holed")
	}
	if rt.shards[1].Breaker().State() != "open" {
		t.Fatalf("breaker=%s after sustained timeouts", rt.shards[1].Breaker().State())
	}
	// With the breaker open, queries stop paying the 100ms timeout for
	// the dead shard: the next query fast-fails it locally.
	start := time.Now()
	rec, _ := postSearch(t, h, searchRequest{Queries: [][]float32{{0}}, K: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-breaker query: %d", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Millisecond {
		t.Fatalf("open breaker still paid the timeout (%v)", elapsed)
	}
	if rt.shards[1].Stats().FastFails.Load() == 0 {
		t.Fatal("no breaker fast-fail recorded")
	}
}

// An injected delay on a shard past its hedge threshold triggers a
// hedged request, and the fast lane's answer wins.
func TestRouterHedgeFiresOnInjectedDelay(t *testing.T) {
	opt := fastOpts()
	opt.Timeout = 5 * time.Second
	opt.HedgeAfter = 30 * time.Millisecond
	opt.HedgeMax = 40 * time.Millisecond
	rt, proxies := faultedShardSet(t, []http.Handler{
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
	}, opt)
	proxies[0].Script(faultproxy.Fault{Mode: faultproxy.Delay, Latency: 2 * time.Second})

	start := time.Now()
	rec, _ := postSearch(t, rt.Handler(), searchRequest{Queries: [][]float32{{0}}, K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue the delayed shard (%v)", elapsed)
	}
	if rt.shards[0].Stats().Hedges.Load() == 0 {
		t.Fatal("no hedge recorded")
	}
}
