// Command annarouter is the scatter-gather front door of a sharded
// anna cluster: it partitions the global ID space into per-shard
// stripes, fans every /search out to all annaserve shards and merges
// their top-k lists, and routes each /add batch to one owning shard
// (WAL-before-ack preserved end to end).
//
// Usage:
//
//	annarouter -shards http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// The router holds no index state, so it restarts instantly and can be
// replicated behind a plain load balancer. Every remote hop is
// hardened: per-attempt deadlines, budgeted retries with jittered
// exponential backoff, hedged requests after the shard's observed p99,
// and a per-shard circuit breaker. When shards are lost the router
// degrades instead of failing: searches answer from the surviving
// shards with the coverage declared in an X-Anna-Partial header
// ("shards=2/3") and counted in anna_partial_results_total; only a
// total loss returns 502.
//
// Endpoints (same dialect as a single annaserve):
//
//	POST /search   fan out, merge global top-k
//	POST /add      route to one shard, rewrite IDs into its stripe
//	GET  /stats    aggregate cluster view with per-shard breaker states
//	GET  /healthz  router process liveness
//	GET  /readyz   200 while at least one shard is ready
//	GET  /metrics  Prometheus text exposition
//	GET  /debug/queries     recent cluster traces, slowest first
//	GET  /debug/trace/{id}  one cluster trace stitched with its shards'
//	GET  /debug/tsdb        embedded metrics ring (unless -scrape-every < 0)
//	GET  /alerts            SLO burn-rate state
//	GET  /debug/dash        live dashboard
//
// Observability (docs/ARCHITECTURE.md §4k): every routed request
// carries an X-Request-ID and the X-Anna-Trace context to its shards,
// which is what lets /debug/trace/{id} stitch their views of it;
// /debug/queries adds per-shard time breakdowns.
package main

import (
	"flag"
	"strings"
	"time"

	"anna/internal/cluster"
	"anna/internal/httpx"
	"anna/internal/qos"
)

func main() {
	fl := httpx.NewFlags(":7080")
	var (
		shards = flag.String("shards", "", "comma-separated shard base URLs in stripe order (required)")
		stride = flag.Int64("stride", cluster.DefaultStride, "global-ID stripe width per shard")

		shardTimeout  = flag.Duration("shard-timeout", 2*time.Second, "per-attempt deadline for shard searches")
		addTimeout    = flag.Duration("add-timeout", 10*time.Second, "per-attempt deadline for shard adds")
		retries       = flag.Int("retries", 2, "retries per failed idempotent shard request (0 = disabled)")
		budgetRatio   = flag.Float64("retry-budget", 0.1, "retry-budget deposit per request (bounds retry amplification)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge idempotent requests in flight past the shard p99, clamped to at least this (0 = no hedging)")
		hedgeMax      = flag.Duration("hedge-max", 0, "hedge delay ceiling (default 10x -hedge-after)")
		breakFailures = flag.Int("breaker-failures", 5, "consecutive failures that open a shard's circuit breaker")
		breakCooldown = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker waits before its half-open probe")
	)
	fl.Parse("annarouter")
	logger := fl.Logger

	var bases []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			bases = append(bases, strings.TrimSuffix(s, "/"))
		}
	}
	if len(bases) == 0 {
		fl.Fatal("no shards: pass -shards with at least one annaserve base URL")
	}

	// The flag surface uses 0 = disabled for -retries; the library uses
	// -1 for that and 0 for "default".
	r := *retries
	if r == 0 {
		r = -1
	}
	rt, err := cluster.New(cluster.Config{
		Shards:  bases,
		Stride:  *stride,
		Limits:  fl.Limits,
		Options: fl.Options,

		Shard: cluster.ShardOptions{
			Timeout:          *shardTimeout,
			AddTimeout:       *addTimeout,
			Retries:          r,
			Backoff:          qos.Backoff{},
			RetryBudgetRatio: *budgetRatio,
			HedgeAfter:       *hedgeAfter,
			HedgeMax:         *hedgeMax,
			BreakerFailures:  *breakFailures,
			BreakerCooldown:  *breakCooldown,
		},
	})
	if err != nil {
		fl.Fatal("configuring router failed", "err", err)
	}

	wait := httpx.Listen(fl.Addr, rt.Handler())
	logger.Info("routing", "addr", fl.Addr, "shards", len(bases), "stride", *stride)
	for i, b := range bases {
		logger.Info("shard", "index", i, "base", b)
	}
	if err := wait(logger, fl.Grace); err != nil {
		fl.Fatal("router failed", "err", err)
	}
	rt.Close()
	logger.Info("shut down cleanly")
}
