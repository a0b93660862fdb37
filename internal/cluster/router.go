package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/httpx"
	"anna/internal/metrics"
	"anna/internal/slo"
	"anna/internal/topk"
	"anna/internal/trace"
	"anna/internal/tsdb"
	"anna/internal/wire"
)

// The router speaks internal/wire on both sides. To its clients it is
// the annaserve API — JSON by default, frames on request — so a client
// cannot tell a router from a single annaserve except for the X-Anna-*
// headers it adds; to its shards it always speaks frames.

// HeaderPartial carries the router's coverage declaration on degraded
// responses: "shards=k/n" means k of n shards contributed.
const HeaderPartial = "X-Anna-Partial"

// HeaderShard names the shard index that served a routed /add.
const HeaderShard = "X-Anna-Shard"

// DefaultStride is the width of each shard's global-ID stripe: shard i
// owns global IDs [i*Stride, (i+1)*Stride), mapped to shard-local IDs
// by subtracting the stripe base. 2^40 local IDs per shard is far past
// any in-memory corpus, and the stripe arithmetic stays exact in int64
// for thousands of shards.
const DefaultStride int64 = 1 << 40

// Config configures a Router.
type Config struct {
	// Shards are the base URLs of the annaserve replicas, in stripe
	// order (shard i owns global IDs [i*Stride, (i+1)*Stride)).
	Shards []string
	// Stride is the global-ID stripe width (default DefaultStride).
	Stride int64
	// Limits bound each request and fill its omitted search knobs.
	httpx.Limits
	// Shard configures the hardened per-shard client.
	Shard ShardOptions

	// Options are the logging, tracing and SLO knobs the router shares
	// with anna.Server.
	httpx.Options
}

// shardIdleConns is how many idle connections the router's transport
// keeps per shard. http.DefaultTransport keeps two, so a third
// concurrent scatter closes and re-dials a connection on every hop; 64
// covers the concurrency a router sees before its shards saturate.
const shardIdleConns = 64

// Router is the scatter-gather front door of a sharded cluster. It
// holds no index state: every query fans out to all shards and every
// add is routed to one, so the router restarts instantly and can be
// replicated freely behind a plain load balancer.
type Router struct {
	shards    []*Shard
	transport *http.Transport // the shards' connections; nil under Config.Shard.Client
	stride    int64
	lim       httpx.Limits

	addRR atomic.Uint64 // round-robin cursor for /add placement

	reg        *metrics.Registry
	partials   *metrics.Counter
	unservable *metrics.Counter
	front      *httpx.Front
}

// New returns a router over the configured shards.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.Stride <= 0 {
		cfg.Stride = DefaultStride
	}
	if cfg.DefaultW <= 0 {
		cfg.DefaultW = 32
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	rt := &Router{
		stride: cfg.Stride,
		lim:    cfg.Limits,
		reg:    metrics.NewRegistry(),
	}
	rt.partials = rt.reg.Counter("anna_partial_results_total",
		"Search responses served with partial shard coverage.")
	rt.unservable = rt.reg.Counter("anna_unservable_requests_total",
		"Requests failed because no shard could serve them.")
	rt.front = httpx.NewFront(&cfg.Options, rt.reg, "search", "add", "stats")
	if cfg.Shard.Client == nil {
		// One transport per router, shared by its shards and closed with
		// it, instead of the process-wide default.
		rt.transport = &http.Transport{MaxIdleConnsPerHost: shardIdleConns}
		if def, ok := http.DefaultTransport.(*http.Transport); ok {
			rt.transport = def.Clone()
			rt.transport.MaxIdleConns = 0 // bounded per shard instead
			rt.transport.MaxIdleConnsPerHost = shardIdleConns
		}
		cfg.Shard.Client = &http.Client{Transport: rt.transport}
	}
	for i, base := range cfg.Shards {
		s := NewShard(i, base, cfg.Shard)
		rt.shards = append(rt.shards, s)
		lbl := metrics.Label{Key: "shard", Value: strconv.Itoa(i)}
		st := s.Stats()
		rt.reg.CounterFunc("anna_shard_requests_total",
			"Attempts sent to each shard (incl. retries and hedges).",
			st.Requests.Load, lbl)
		rt.reg.CounterFunc("anna_shard_retries_total",
			"Retried attempts per shard.", st.Retries.Load, lbl)
		rt.reg.CounterFunc("anna_shard_hedges_total",
			"Hedged attempts per shard.", st.Hedges.Load, lbl)
		rt.reg.CounterFunc("anna_shard_failures_total",
			"Attempts that ended in a transport error or 5xx.", st.Failures.Load, lbl)
		rt.reg.CounterFunc("anna_shard_fast_fails_total",
			"Requests refused locally by the open circuit breaker.", st.FastFails.Load, lbl)
		rt.reg.CounterFunc("anna_shard_breaker_opens_total",
			"Times the shard's circuit breaker tripped open.", s.Breaker().Opens, lbl)
		breaker := s.Breaker()
		rt.reg.GaugeFunc("anna_shard_breaker_open",
			"1 when the shard's circuit breaker is not closed.",
			func() float64 {
				if breaker.State() != "closed" {
					return 1
				}
				return 0
			}, lbl)
	}
	metrics.RegisterRuntime(rt.reg)
	rt.front.StartObs(httpx.Extra{
		Series: []tsdb.Series{{Name: "partials", Kind: tsdb.CounterKind,
			Sample: func() float64 { return float64(rt.partials.Value()) }}},
		// Partial-coverage-aware: a degraded answer (some shards
		// missing) costs half an error against the budget.
		Unavailable: []slo.Part{{Series: "partials", Weight: 0.5}},
	})
	return rt, nil
}

// Close stops the router's background scraper and closes its idle shard
// connections. The shard clients hold no goroutines of their own.
func (rt *Router) Close() {
	rt.front.Close()
	if rt.transport != nil {
		rt.transport.CloseIdleConnections()
	}
}

// Shards exposes the shard clients (metrics, tests, annaload).
func (rt *Router) Shards() []*Shard { return rt.shards }

// Metrics returns the router's metrics registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Handler returns the router's HTTP handler tree — the same surface as
// a single annaserve, minus the single-process admin endpoints.
func (rt *Router) Handler() http.Handler {
	f := rt.front
	mux := http.NewServeMux()
	mux.HandleFunc("/search", f.Instrument("search", http.MethodPost, rt.handleSearch))
	mux.HandleFunc("/add", f.Instrument("add", http.MethodPost, rt.handleAdd))
	mux.HandleFunc("/stats", f.Instrument("stats", http.MethodGet, rt.handleStats))
	mux.HandleFunc("/readyz", rt.handleReadyz)
	f.Mount(mux, "annarouter", false, httpx.Debug{Entry: shardBreakdown, Trace: rt.stitch})
	return mux
}

// scatter sends the same request to every shard concurrently and
// returns all replies (indexed by shard) in replies[:0]. ctx carries the
// request ID (and trace, when sampled) into every hop; check, when set,
// is each hop's verdict on a 200 body (see Shard.do). The last hop runs
// on the caller's goroutine: it would only wait for the others anyway.
func (rt *Router) scatter(ctx context.Context, method, path string, body []byte, check func([]byte) error, replies []result) []result {
	replies = slices.Grow(replies[:0], len(rt.shards))[:len(rt.shards)]
	hop := func(i int) {
		status, b, err := rt.shards[i].do(ctx, method, path, body, true, check)
		replies[i] = result{status: status, body: b, err: err}
	}
	var wg sync.WaitGroup
	last := len(rt.shards) - 1
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hop(i)
		}(i)
	}
	hop(last)
	wg.Wait()
	return replies
}

// searchScratch is the pooled working set of one routed /search: the
// client's body as read, the decoded request, the shards' replies, their
// decoded rows (views into one arena, already in global IDs), the merged
// reply and its encoding. The frame sent to the shards is not here: a
// canceled attempt's transport may still be reading it after the handler
// has returned.
type searchScratch struct {
	body    httpx.Body
	req     wire.SearchRequest
	replies []result
	shard   []wire.SearchReply // decoded replies of the shards that answered
	arena   []wire.Result
	lists   [][]wire.Result // one query's rows across shards, for the merge
	out     wire.SearchReply
	enc     []byte
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// handleSearch fans one search out to every shard and merges the
// per-shard top-k lists into the global top-k. Shards that fail past
// their retry budget are dropped from coverage: the query still
// answers, with the loss declared in X-Anna-Partial and counted in
// anna_partial_results_total. Only a total loss (zero shards) fails
// the request.
func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	// The request ID rides every shard hop. Shard.do records one hop per
	// attempt into a live trace and stamps the wire context on each, so
	// the shards' traces stitch under the same ID; refused requests are
	// traced too.
	reqID, parent, tagged := httpx.RequestID(w, r)
	ctx := WithRequestID(r.Context(), reqID)
	tr := rt.front.StartTrace(reqID, parent, tagged, time.Now())
	if tr != nil {
		ctx = trace.NewContext(ctx, tr)
		defer rt.front.Record(tr, w)
	}
	sc := searchScratchPool.Get().(*searchScratch)
	defer searchScratchPool.Put(sc)
	req := &sc.req
	// Normalize the knobs before fan-out so every shard answers the
	// identical (W, K) — the merge below assumes per-shard lists are
	// each a top-K under the same K.
	codec, valid := rt.front.DecodeSearch(w, r, &sc.body, req, rt.lim)
	if !valid {
		return
	}
	nq := len(req.Queries)
	if tr != nil {
		tr.Queries, tr.W, tr.K = nq, req.W, req.K
	}
	// What a frame cannot carry (rows of unequal length, an unknown
	// backend) no shard would have accepted either.
	frame, err := wire.AppendSearchRequestFrame(nil, req)
	if err != nil {
		rt.front.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}

	sc.replies = rt.scatter(ctx, http.MethodPost, "/search", frame,
		func(reply []byte) error { return wire.CheckSearchReplyFrame(reply, nq) }, sc.replies)

	// A 4xx from any shard means the request itself is bad (shards are
	// interchangeable for validation); relay the first one verbatim — as
	// JSON, the one codec of error bodies.
	for _, rep := range sc.replies {
		if rep.err == nil && rep.status >= 400 && rep.status < 500 {
			rt.front.WriteReply(w, rep.status, wire.JSONContentType, rep.body)
			return
		}
	}

	// Decode the shards that answered straight into the arena, shard-local
	// IDs rewritten into their global stripes on the way in. A body that
	// got here passed the hop's check, which is the decoder's own.
	shards := slices.Grow(sc.shard[:0], len(sc.replies))[:len(sc.replies)]
	arena, ok := sc.arena[:0], 0
	for i, rep := range sc.replies {
		if rep.err != nil || rep.status != http.StatusOK {
			continue
		}
		if arena, err = wire.DecodeSearchReplyFrame(&shards[ok], rep.body, int64(i)*rt.stride, arena); err == nil {
			ok++
		}
	}
	sc.shard, sc.arena = shards[:ok], arena
	if ok == 0 {
		rt.unservable.Inc()
		rt.front.HTTPError(w, http.StatusBadGateway, "no shard reachable (0/%d)", len(rt.shards))
		return
	}

	out := slices.Grow(sc.out.Results[:0], nq)
	lists := slices.Grow(sc.lists[:0], ok)[:ok]
	for q := 0; q < nq; q++ {
		for i := range sc.shard {
			lists[i] = sc.shard[i].Results[q]
		}
		out = append(out, topk.Merge(req.K, lists...))
	}
	sc.out.Results, sc.lists = out, lists

	if ok < len(rt.shards) {
		w.Header().Set(HeaderPartial, fmt.Sprintf("shards=%d/%d", ok, len(rt.shards)))
		rt.partials.Inc()
	}
	if sc.enc, err = codec.AppendSearchReply(sc.enc[:0], &sc.out); err != nil {
		rt.front.Log().Error("encoding response failed", "err", err)
	}
	rt.front.WriteReply(w, http.StatusOK, codec.ContentType(), sc.enc)
}

// addScratch is the pooled working set of one routed /add.
type addScratch struct {
	body httpx.Body
	req  wire.AddRequest
	enc  []byte
}

var addScratchPool = sync.Pool{New: func() any { return new(addScratch) }}

// handleAdd routes one add batch to a single owning shard. The shard's
// WAL-before-ack pipeline is preserved end to end: the router acks only
// after the shard acked, and the shard acks only after its WAL fsync.
// Adds are never retried — a timed-out add may have been applied, and
// re-sending it would duplicate vectors. Placement is round-robin over
// shards whose breaker admits traffic; a breaker fast-fail (request
// provably unsent) moves to the next shard.
func (rt *Router) handleAdd(w http.ResponseWriter, r *http.Request) {
	reqID, _, _ := httpx.RequestID(w, r)
	ctx := WithRequestID(r.Context(), reqID)
	sc := addScratchPool.Get().(*addScratch)
	defer addScratchPool.Put(sc)
	req := &sc.req
	codec, ok := rt.front.DecodeAdd(w, r, &sc.body, req)
	if !ok {
		return
	}
	// Like the search frame, fresh per request: a timed-out add's
	// transport may outlive the handler.
	frame, err := wire.AppendAddRequestFrame(nil, req)
	if err != nil {
		rt.front.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := int(rt.addRR.Add(1)-1) % len(rt.shards)
	for off := 0; off < len(rt.shards); off++ {
		s := rt.shards[(start+off)%len(rt.shards)]
		status, b, err := s.Do(ctx, http.MethodPost, "/add", frame, false)
		if err != nil {
			if r.Context().Err() != nil {
				rt.front.HTTPError(w, http.StatusGatewayTimeout, "add canceled: %v", err)
				return
			}
			// ErrShardDown means the request was never sent — the next
			// shard can own this batch. Any other error is ambiguous
			// (the shard may have applied it) and must surface.
			if errors.Is(err, ErrShardDown) {
				continue
			}
			rt.unservable.Inc()
			// Name the shard so the client knows whose state is now
			// ambiguous (the batch may or may not have been applied).
			w.Header().Set(HeaderShard, strconv.Itoa(s.Index))
			rt.front.HTTPError(w, http.StatusBadGateway, "shard %d add failed: %v", s.Index, err)
			return
		}
		if status != http.StatusOK {
			// Relay the shard's verdict (400 bad vectors, 429, 5xx...).
			w.Header().Set(HeaderShard, strconv.Itoa(s.Index))
			rt.front.WriteReply(w, status, wire.JSONContentType, b)
			return
		}
		ar, err := wire.DecodeAddReplyFrame(b)
		if err != nil {
			rt.front.HTTPError(w, http.StatusBadGateway, "shard %d add reply: %v", s.Index, err)
			return
		}
		if ar.FirstID+int64(ar.Count) > rt.stride {
			rt.front.HTTPError(w, http.StatusInternalServerError,
				"shard %d exhausted its ID stripe (%d ids)", s.Index, rt.stride)
			return
		}
		ar.FirstID += int64(s.Index) * rt.stride
		w.Header().Set(HeaderShard, strconv.Itoa(s.Index))
		sc.enc = codec.AppendAddReply(sc.enc[:0], ar)
		rt.front.WriteReply(w, http.StatusOK, codec.ContentType(), sc.enc)
		return
	}
	rt.unservable.Inc()
	rt.front.HTTPError(w, http.StatusBadGateway, "no shard accepting adds (0/%d)", len(rt.shards))
}

// handleStats aggregates shard /stats into a cluster view: total
// vectors, per-shard detail, and breaker states.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	replies := rt.scatter(r.Context(), http.MethodGet, "/stats", nil, nil, nil)
	total := 0
	shards := make([]map[string]any, len(replies))
	for i, rep := range replies {
		entry := map[string]any{
			"shard":   i,
			"base":    rt.shards[i].Base,
			"breaker": rt.shards[i].Breaker().State(),
		}
		if rep.err != nil || rep.status != http.StatusOK {
			entry["up"] = false
		} else {
			var st map[string]any
			if err := json.Unmarshal(rep.body, &st); err == nil {
				entry["up"] = true
				if v, ok := st["vectors"].(float64); ok {
					entry["vectors"] = int(v)
					total += int(v)
				}
			} else {
				entry["up"] = false
			}
		}
		shards[i] = entry
	}
	rt.front.JSON(w, http.StatusOK, map[string]any{
		"vectors": total,
		"stride":  rt.stride,
		"shards":  shards,
	})
}

// handleReadyz reports the router's ability to serve: ready as soon as
// at least one shard answers its own /readyz (the degradation contract
// lets the router serve partial coverage), with the full per-shard
// picture in the body for operators and the harness.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type shardReady struct {
		Shard int    `json:"shard"`
		Base  string `json:"base"`
		Ready bool   `json:"ready"`
	}
	states := make([]shardReady, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			status, _, err := s.Do(r.Context(), http.MethodGet, "/readyz", nil, true)
			states[i] = shardReady{Shard: i, Base: s.Base, Ready: err == nil && status == http.StatusOK}
		}(i, s)
	}
	wg.Wait()
	ready := 0
	for _, st := range states {
		if st.Ready {
			ready++
		}
	}
	code := http.StatusOK
	if ready == 0 {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set(HeaderPartial, fmt.Sprintf("shards=%d/%d", ready, len(rt.shards)))
	rt.front.JSON(w, code, map[string]any{
		"ready":  ready > 0,
		"shards": states,
	})
}
