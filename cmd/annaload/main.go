// Command annaload is a load generator for the serving path: it drives
// /search with a configurable traffic shape (uniform or Zipfian query
// mix, weighted multi-tenant mix) in closed- or open-loop mode and
// reports latency-vs-throughput curves.
//
// With no -addr it self-hosts: a synthetic dataset is generated and
// indexed in-process and the workload is driven twice — once against a
// baseline server (dynamic batching and the result cache disabled) and
// once against the full serving stack — so the saturation-throughput
// speedup of server-side batching + caching is measured directly:
//
//	go run ./cmd/annaload -duration 2s -out BENCH_serve.json
//
// With -addr it drives a running annaserve over HTTP instead and emits
// a single curve:
//
//	go run ./cmd/annaload -addr http://localhost:8080 -concurrency 8,32,128
//
// With -adaptive (self-host only) a third curve serves the baseline
// shape under per-query adaptive effort (early scan termination), so
// the engine-side win of docs/ARCHITECTURE.md §4j is measured at the
// serving boundary; adaptive_speedup records it against the baseline.
//
// With -router N (self-host only) it additionally splits the corpus
// across N in-process shard servers behind the scatter-gather router
// and sweeps that cluster as a "router-N" curve, so the fan-out and
// merge overhead of sharded serving is measured against the
// single-process configurations.
//
// Closed loop (-mode closed) runs N workers that each keep exactly one
// request in flight, sweeping N over -concurrency: the classic
// saturation measurement. Open loop (-mode open) fires requests at the
// fixed rates in -qps regardless of completions, which exposes queueing
// delay the way production traffic does.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anna"
	"anna/internal/cluster"
	"anna/internal/dataset"
	"anna/internal/httpx"
	"anna/internal/pq"
	"anna/internal/qos"
)

// point is one measured (load level, latency) sample of a curve.
type point struct {
	Concurrency int     `json:"concurrency,omitempty"`
	TargetQPS   float64 `json:"target_qps,omitempty"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	Requests    int64   `json:"requests"`
	Throttled   int64   `json:"throttled,omitempty"`
	Errors      int64   `json:"errors,omitempty"`
	Dropped     int64   `json:"dropped,omitempty"`
}

// curve is one server configuration swept over the load levels.
type curve struct {
	Config        string         `json:"config"`
	Points        []point        `json:"points"`
	SaturationQPS float64        `json:"saturation_qps"`
	BestP99Ms     float64        `json:"best_p99_ms"`
	Cache         map[string]any `json:"cache,omitempty"`
}

// output is the BENCH_serve.json document.
type output struct {
	Generated         string   `json:"generated"`
	Mode              string   `json:"mode"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	Dataset           string   `json:"dataset"`
	Zipf              float64  `json:"zipf"`
	TenantMix         string   `json:"tenant_mix,omitempty"`
	Description       string   `json:"description"`
	Curves            []curve  `json:"curves"`
	SaturationSpeedup *float64 `json:"saturation_speedup,omitempty"`
	// P99SpeedupAtPeak compares p99 latency at the highest load level
	// (baseline/batched; >1 means batching lowers tail latency under
	// pressure — the batcher only coalesces once every engine slot is
	// busy, so load is where the two configs differ).
	P99SpeedupAtPeak *float64 `json:"p99_speedup_at_peak,omitempty"`
	// AdaptiveSpeedup compares the adaptive curve's saturation QPS to
	// the baseline's (both direct serving, no batcher or cache; >1 means
	// per-query early termination buys serving throughput).
	AdaptiveSpeedup *float64 `json:"adaptive_speedup,omitempty"`
}

// target abstracts where requests go: an in-process handler (self-host)
// or a remote server over HTTP.
type target interface {
	// do posts one pre-marshalled /search body and returns the status.
	do(body []byte, apiKey string) (int, error)
	// stats fetches the /stats document (nil when unavailable).
	stats() map[string]any
}

type selfTarget struct{ h http.Handler }

func (t selfTarget) do(body []byte, apiKey string) (int, error) {
	r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	if apiKey != "" {
		r.Header.Set("X-API-Key", apiKey)
	}
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	return w.Code, nil
}

func (t selfTarget) stats() map[string]any {
	r := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	var m map[string]any
	if json.Unmarshal(w.Body.Bytes(), &m) != nil {
		return nil
	}
	return m
}

type remoteTarget struct {
	base   string
	client *http.Client
}

func newRemoteTarget(base string, maxConns int) *remoteTarget {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxConns
	return &remoteTarget{base: strings.TrimRight(base, "/"), client: &http.Client{Transport: tr}}
}

func (t *remoteTarget) do(body []byte, apiKey string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, t.base+"/search", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func (t *remoteTarget) stats() map[string]any {
	resp, err := t.client.Get(t.base + "/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var m map[string]any
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return nil
	}
	return m
}

// workload is the prepared traffic: pre-marshalled request bodies plus
// per-worker generators so the hot loop only draws and posts.
type workload struct {
	bodies  [][]byte
	zipf    float64
	shares  []dataset.TenantShare
	seed    int64
	counter atomic.Int64 // hands out distinct generator seeds
}

func (w *workload) generators() (*dataset.QueryMix, *dataset.TenantMix) {
	s := w.seed + w.counter.Add(1)
	return dataset.NewQueryMix(len(w.bodies), w.zipf, s), dataset.NewTenantMix(w.shares, s)
}

// recorder accumulates latency samples and status counts across workers.
type recorder struct {
	mu        sync.Mutex
	latencies []float64 // seconds
	throttled atomic.Int64
	errors    atomic.Int64
	dropped   atomic.Int64
}

func (r *recorder) observe(d time.Duration) {
	r.mu.Lock()
	r.latencies = append(r.latencies, d.Seconds())
	r.mu.Unlock()
}

func (r *recorder) record(status int, err error, d time.Duration) {
	switch {
	case err != nil:
		r.errors.Add(1)
	case status == http.StatusTooManyRequests:
		r.throttled.Add(1)
	case status != http.StatusOK:
		r.errors.Add(1)
	default:
		r.observe(d)
	}
}

func (r *recorder) point(elapsed time.Duration) point {
	sort.Float64s(r.latencies)
	pct := func(p float64) float64 {
		if len(r.latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(r.latencies)-1))
		return r.latencies[i] * 1e3
	}
	return point{
		QPS:       float64(len(r.latencies)) / elapsed.Seconds(),
		P50Ms:     pct(0.50),
		P95Ms:     pct(0.95),
		P99Ms:     pct(0.99),
		Requests:  int64(len(r.latencies)),
		Throttled: r.throttled.Load(),
		Errors:    r.errors.Load(),
		Dropped:   r.dropped.Load(),
	}
}

// runClosed keeps exactly `workers` requests in flight for dur.
func runClosed(tgt target, w *workload, workers int, dur time.Duration) point {
	rec := &recorder{}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qm, tm := w.generators()
			for time.Now().Before(deadline) {
				body := w.bodies[qm.Next()]
				start := time.Now()
				status, err := tgt.do(body, tm.Next())
				rec.record(status, err, time.Since(start))
			}
		}()
	}
	wg.Wait()
	p := rec.point(dur)
	p.Concurrency = workers
	return p
}

// runOpen fires requests at a fixed rate regardless of completions.
// Outstanding requests are capped; dispatches that would exceed the cap
// are dropped and counted, keeping the generator open-loop instead of
// degrading into a closed one.
func runOpen(tgt target, w *workload, rate float64, dur time.Duration) point {
	rec := &recorder{}
	qm, tm := w.generators()
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, 8192)
	var wg sync.WaitGroup
	start := time.Now()
	for next := start; time.Since(start) < dur; next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		body, key := w.bodies[qm.Next()], tm.Next()
		select {
		case sem <- struct{}{}:
		default:
			rec.dropped.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			status, err := tgt.do(body, key)
			rec.record(status, err, time.Since(t0))
		}()
	}
	wg.Wait()
	p := rec.point(dur)
	p.TargetQPS = rate
	return p
}

// sweep measures one server configuration across all load levels.
func sweep(name string, tgt target, w *workload, mode string, levels []int, rates []float64, dur time.Duration) curve {
	// Warm up: fills connection pools, scratch pools, and (when
	// enabled) the result cache to its steady state.
	warm := dur / 4
	if warm > 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	runClosed(tgt, w, 4, warm)

	c := curve{Config: name}
	if mode == "open" {
		for _, r := range rates {
			p := runOpen(tgt, w, r, dur)
			fmt.Fprintf(os.Stderr, "annaload: %-10s target %8.0f qps -> %8.0f qps  p50 %6.2fms  p99 %6.2fms  (throttled %d, dropped %d)\n",
				name, r, p.QPS, p.P50Ms, p.P99Ms, p.Throttled, p.Dropped)
			c.Points = append(c.Points, p)
		}
	} else {
		for _, n := range levels {
			p := runClosed(tgt, w, n, dur)
			fmt.Fprintf(os.Stderr, "annaload: %-10s c=%-4d -> %8.0f qps  p50 %6.2fms  p99 %6.2fms  (throttled %d)\n",
				name, n, p.QPS, p.P50Ms, p.P99Ms, p.Throttled)
			c.Points = append(c.Points, p)
		}
	}
	for i, p := range c.Points {
		if p.QPS > c.SaturationQPS {
			c.SaturationQPS = p.QPS
		}
		if i == 0 || (p.P99Ms > 0 && p.P99Ms < c.BestP99Ms) {
			c.BestP99Ms = p.P99Ms
		}
	}
	c.Cache = nil
	if st := tgt.stats(); st != nil {
		if cacheStats, ok := st["cache"].(map[string]any); ok {
			c.Cache = cacheStats
		}
	}
	return c
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad level %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		addr       = flag.String("addr", "", "target server base URL (empty = self-host a synthetic index in-process)")
		mode       = flag.String("mode", "closed", `load model: "closed" (N workers, 1 in flight each) or "open" (fixed arrival rate)`)
		duration   = flag.Duration("duration", 2*time.Second, "measurement window per load level")
		concLevels = flag.String("concurrency", "1,4,16,32,64", "closed-loop worker counts to sweep")
		qpsLevels  = flag.String("qps", "500,2000,8000", "open-loop arrival rates to sweep")
		zipf       = flag.Float64("zipf", 1.1, "query popularity skew: Zipf exponent, <=1 for uniform")
		pool       = flag.Int("pool", 2048, "distinct queries in the traffic pool")
		tenantMix  = flag.String("tenant-mix", "", `traffic tenant mix "key:weight,key:weight" (empty = anonymous)`)
		tenantSpec = flag.String("tenants", "", "self-host server tenant config (qos.ParseTenants syntax)")
		nBase      = flag.Int("n", 50000, "self-host: database vectors")
		dim        = flag.Int("d", 64, "self-host: dimensionality")
		clusters   = flag.Int("clusters", 64, "self-host: coarse clusters")
		w          = flag.Int("w", 32, "clusters inspected per query")
		k          = flag.Int("k", 10, "results per query")
		cacheSize  = flag.Int("cache", 4096, "self-host: result-cache entries of the batched config")
		noBaseline = flag.Bool("no-baseline", false, "self-host: skip the unbatched/uncached baseline curve")
		adaptiveOn = flag.Bool("adaptive", false, "self-host: also sweep an adaptive-effort config (early termination, batcher and cache disabled) against the baseline")
		stopPat    = flag.Int("stop-patience", 4, "adaptive config: stop a query's scan after this many non-improving clusters")
		router     = flag.Int("router", 0, "self-host: also sweep a cluster of this many shards (corpus split evenly) behind the scatter-gather router (0 = skip)")
		seed       = flag.Int64("seed", 1, "workload seed")
		out        = flag.String("out", "", "write the JSON document here (empty = stdout)")
	)
	flag.Parse()
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "annaload: "+format+"\n", args...)
		os.Exit(1)
	}

	levels, err := parseInts(*concLevels)
	if err != nil {
		fatal("-concurrency: %v", err)
	}
	rates, err := parseFloats(*qpsLevels)
	if err != nil {
		fatal("-qps: %v", err)
	}
	if *mode != "closed" && *mode != "open" {
		fatal(`-mode must be "closed" or "open"`)
	}
	shares, err := dataset.ParseTenantMix(*tenantMix)
	if err != nil {
		fatal("%v", err)
	}

	// The query pool: synthetic clustered queries matching the
	// self-host dataset's structure (also a reasonable shape for a
	// remote target). Bodies are pre-marshalled so the hot loop does no
	// encoding of its own.
	spec := dataset.Spec{
		Name: "load", Metric: pq.L2, N: *nBase, Q: *pool, D: *dim,
		Groups: *clusters, Std: 0.15, Seed: *seed,
	}
	ds := dataset.Generate(spec)
	wl := &workload{zipf: *zipf, shares: shares, seed: *seed}
	for i := 0; i < ds.Queries.Rows; i++ {
		body, err := json.Marshal(map[string]any{
			"queries": [][]float32{ds.Queries.Row(i)}, "w": *w, "k": *k,
		})
		if err != nil {
			fatal("%v", err)
		}
		wl.bodies = append(wl.bodies, body)
	}

	doc := &output{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Mode:       *mode,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dataset:    fmt.Sprintf("synthetic n=%d d=%d groups=%d pool=%d", *nBase, *dim, *clusters, *pool),
		Zipf:       *zipf,
		TenantMix:  *tenantMix,
		Description: "Serving-path latency vs throughput. 'baseline' serves every request " +
			"individually (batcher and result cache disabled); 'batched' is the full stack " +
			"(dynamic coalescing into ClusterMajor engine batches, quantized-query result " +
			"cache, per-tenant QoS). saturation_speedup = batched/baseline peak QPS. " +
			"'adaptive' (with -adaptive) is the baseline shape under per-query early " +
			"termination; adaptive_speedup = adaptive/baseline peak QPS.",
	}

	if *addr != "" {
		maxConns := 64
		for _, l := range levels {
			if l > maxConns {
				maxConns = l
			}
		}
		doc.Curves = append(doc.Curves, sweep("remote", newRemoteTarget(*addr, maxConns), wl, *mode, levels, rates, *duration))
	} else {
		// Self-host: build once, serve under both configurations.
		vectors := make([][]float32, ds.Base.Rows)
		for i := range vectors {
			vectors[i] = ds.Base.Row(i)
		}
		fmt.Fprintf(os.Stderr, "annaload: building index (n=%d d=%d clusters=%d)...\n", *nBase, *dim, *clusters)
		idx, err := anna.BuildIndex(vectors, anna.L2, anna.BuildOptions{
			NClusters: *clusters, M: 8, Ks: 16, TrainIters: 8, Seed: *seed,
		})
		if err != nil {
			fatal("building index: %v", err)
		}

		newSrv := func(batched bool) *anna.Server {
			s := anna.NewServer(idx)
			s.TraceSampleEvery = -1
			s.SlowQuery = -1
			if batched {
				s.CacheSize = *cacheSize
			} else {
				s.BatchMaxConcurrent, s.CacheSize = -1, -1
			}
			if *tenantSpec != "" {
				t, err := qos.ParseTenants(*tenantSpec)
				if err != nil {
					fatal("-tenants: %v", err)
				}
				s.Tenants = t
			}
			return s
		}

		if !*noBaseline {
			s := newSrv(false)
			doc.Curves = append(doc.Curves, sweep("baseline", selfTarget{s.Handler()}, wl, *mode, levels, rates, *duration))
			s.Close()
		}
		s := newSrv(true)
		doc.Curves = append(doc.Curves, sweep("batched", selfTarget{s.Handler()}, wl, *mode, levels, rates, *duration))
		s.Close()

		if *adaptiveOn {
			// Adaptive effort, same direct (unbatched, uncached) serving
			// shape as the baseline, so the curve isolates the engine-side
			// win of early termination rather than mixing it with
			// coalescing and cache hits.
			as := newSrv(false)
			as.Adaptive = anna.AdaptiveServing{
				Policy: anna.AdaptiveOptions{StopPatience: *stopPat, MinClusters: 2},
			}
			doc.Curves = append(doc.Curves, sweep("adaptive", selfTarget{as.Handler()}, wl, *mode, levels, rates, *duration))
			as.Close()
		}

		if *router > 0 {
			// Sharded cluster: the same corpus split evenly across N
			// in-process shards (each the full serving stack behind a
			// real HTTP hop), fronted by the scatter-gather router —
			// the fan-out + merge overhead measured against the
			// single-process curves above.
			nShards := *router
			fmt.Fprintf(os.Stderr, "annaload: building %d shard indexes...\n", nShards)
			shardClusters := *clusters / nShards
			if shardClusters < 4 {
				shardClusters = 4
			}
			servers := make([]*anna.Server, 0, nShards)
			urls := make([]string, 0, nShards)
			for i := 0; i < nShards; i++ {
				var part [][]float32
				for j := i; j < len(vectors); j += nShards {
					part = append(part, vectors[j])
				}
				sidx, err := anna.BuildIndex(part, anna.L2, anna.BuildOptions{
					NClusters: shardClusters, M: 8, Ks: 16, TrainIters: 8, Seed: *seed + int64(i),
				})
				if err != nil {
					fatal("building shard %d index: %v", i, err)
				}
				ss := anna.NewServer(sidx)
				ss.TraceSampleEvery = -1
				ss.SlowQuery = -1
				ss.CacheSize = *cacheSize
				hs := httptest.NewServer(ss.Handler())
				defer hs.Close()
				servers = append(servers, ss)
				urls = append(urls, hs.URL)
			}
			rt, err := cluster.New(cluster.Config{Shards: urls, Limits: httpx.Limits{DefaultW: *w, DefaultK: *k}})
			if err != nil {
				fatal("configuring router: %v", err)
			}
			doc.Curves = append(doc.Curves, sweep(fmt.Sprintf("router-%d", nShards),
				selfTarget{rt.Handler()}, wl, *mode, levels, rates, *duration))
			for _, ss := range servers {
				ss.Close()
			}
		}

		for i := range doc.Curves {
			if doc.Curves[i].Config == "adaptive" && doc.Curves[0].Config == "baseline" && doc.Curves[0].SaturationQPS > 0 {
				sp := doc.Curves[i].SaturationQPS / doc.Curves[0].SaturationQPS
				doc.AdaptiveSpeedup = &sp
				fmt.Fprintf(os.Stderr, "annaload: adaptive saturation %0.0f vs baseline %0.0f qps (%.2fx)\n",
					doc.Curves[i].SaturationQPS, doc.Curves[0].SaturationQPS, sp)
			}
		}
		if len(doc.Curves) >= 2 && doc.Curves[0].Config == "baseline" && doc.Curves[0].SaturationQPS > 0 {
			sp := doc.Curves[1].SaturationQPS / doc.Curves[0].SaturationQPS
			doc.SaturationSpeedup = &sp
			b, q := doc.Curves[0].Points, doc.Curves[1].Points
			if len(b) > 0 && len(q) > 0 && q[len(q)-1].P99Ms > 0 {
				p99 := b[len(b)-1].P99Ms / q[len(q)-1].P99Ms
				doc.P99SpeedupAtPeak = &p99
			}
			fmt.Fprintf(os.Stderr, "annaload: saturation %0.0f -> %0.0f qps (%.2fx)\n",
				doc.Curves[0].SaturationQPS, doc.Curves[1].SaturationQPS, sp)
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "annaload: wrote %s\n", *out)
}
