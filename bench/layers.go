package main

// The traced pass. The benchmark may not add spans to the program, so
// layers are measured from outside: the same ops are replayed, one
// sequential client, against each layer's public entry point in turn
// (loopback HTTP, in-process handler, batcher or cache, engine, ivf
// kernels), each leg on freshly constructed servers so cache state and
// hit/miss pattern are identical per op index. A layer's self time is its
// leg minus the leg below it, op by op. Counts come from the program's own
// /metrics, scraped before and after the timed phase and never during it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anna"
	"anna/internal/dataset"
	"anna/internal/ivf"
	"anna/internal/pq"
	"anna/internal/qos"
	"anna/internal/topk"
)

// span is one timed call of the traced pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Op     int    `json:"op"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// timeOp times fn and, when record is set, keeps it as a span.
func (t *tracer) timeOp(record bool, name, parent string, op int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if record {
		s := start.Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Op: op})
	}
	return d, err
}

// timeMS is timeOp in the unit the per-op series use.
func (t *tracer) timeMS(record bool, name, parent string, op int, fn func() error) (float64, error) {
	d, err := t.timeOp(record, name, parent, op, fn)
	return ms(d), err
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// series helpers: per-op values in ms, combined op by op.

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// pick keeps the values whose op satisfies keep.
func pick(v []float64, keep func(i int) bool) []float64 {
	var out []float64
	for i, x := range v {
		if keep(i) {
			out = append(out, x)
		}
	}
	return out
}

// overheadShare compares the ops whose spans were recorded (even) with
// those timed but not recorded (odd) on one leg.
func overheadShare(front []float64, keep func(i int) bool) float64 {
	on := median(pick(front, func(i int) bool { return keep(i) && i%2 == 0 }))
	off := median(pick(front, func(i int) bool { return keep(i) && i%2 == 1 }))
	if off == 0 {
		return 0
	}
	return on/off - 1
}

// engineAcc accumulates BatchReports of one leg into the engine-side
// metrics. Stage times are worker (CPU) time, as the engine reports them.
type engineAcc struct {
	queries                                      int
	wall, run, over, self, sel, scan, merge, rer []float64 // per call, ms per query
	scanned, clusters, listBytes, escalations    int64
}

// add records one front-door search of nq queries that took wall and
// produced reps (one per index searched; three on the router).
func (a *engineAcc) add(nq int, wall time.Duration, reps ...*anna.BatchReport) {
	workers := float64(min(runtime.GOMAXPROCS(0), nq))
	var elapsed, sel, scan, merge, rer time.Duration
	for _, r := range reps {
		elapsed += r.Elapsed
		sel, scan, merge, rer = sel+r.SelectTime, scan+r.ScanTime, merge+r.MergeTime, rer+r.RerankTime
		a.scanned += r.ScannedVectors
		a.clusters += r.ClustersScanned
		a.listBytes += r.ListBytesTouched
		a.escalations += r.Escalations
	}
	n := float64(nq)
	a.queries += nq
	a.wall = append(a.wall, ms(wall)/n)
	a.run = append(a.run, ms(elapsed)*workers/n)
	a.over = append(a.over, (ms(elapsed)*workers-ms(sel+scan+merge+rer))/n)
	a.self = append(a.self, ms(wall-elapsed)/n)
	a.sel = append(a.sel, ms(sel)/n)
	a.scan = append(a.scan, ms(scan)/n)
	a.merge = append(a.merge, ms(merge)/n)
	a.rer = append(a.rer, ms(rer)/n)
}

// emit writes the medians and returns the layers' self times summed in
// wall-clock ms per query (worker time divided by the workers it ran on).
func (a *engineAcc) emit(m map[string]float64, batch int) float64 {
	if a.queries == 0 {
		return 0
	}
	m["engine.run_ms_per_query"] = median(a.run)
	m["engine.overhead_ms_per_query"] = median(a.over)
	m["anna.search_batch_self_ms_per_query"] = median(a.self)
	m["ivf.select_ms_per_query"] = median(a.sel)
	m["ivf.scan_ms_per_query"] = median(a.scan)
	m["topk.merge_ms_per_query"] = median(a.merge)
	m["adaptive.rerank_ms_per_query"] = median(a.rer)
	q := float64(a.queries)
	m["adaptive.escalations_per_query"] = float64(a.escalations) / q
	m["ivf.scanned_vectors_per_query"] = float64(a.scanned) / q
	m["ivf.clusters_per_query"] = float64(a.clusters) / q
	m["ivf.list_bytes_per_query"] = float64(a.listBytes) / q
	workers := float64(min(runtime.GOMAXPROCS(0), batch))
	return median(a.self) + (median(a.over)+median(a.sel)+median(a.scan)+median(a.merge)+median(a.rer))/workers
}

// ivfLeg splits the engine's scan stage into LUT build and list scan by
// calling the ivf kernels directly on a copy loaded from the saved bytes.
func ivfLeg(m map[string]float64, blobs [][]byte, queries [][]float32) error {
	var lutMS, nsPerVec []float64
	type shard struct {
		x       *ivf.Index
		cs      *ivf.ClusterSelection
		lut     *pq.LUT
		sel     *topk.Selector
		scratch []float32
	}
	var shards []shard
	for _, b := range blobs {
		x, err := ivf.Load(bytes.NewReader(b))
		if err != nil {
			return err
		}
		shards = append(shards, shard{x, x.NewClusterSelection(searchW), pq.NewLUT(x.PQ),
			topk.NewSelector(searchK * rerankPolicy.EscalateFactor), make([]float32, x.D)})
	}
	for _, q := range queries {
		var lut, scan time.Duration
		vectors := 0
		for _, s := range shards {
			pq := s.x.PrepQuery(q)
			s.x.SelectClustersBatch(s.cs, pq)
			s.sel.Reset()
			for _, c := range s.cs.Clusters {
				t0 := time.Now()
				s.x.BuildLUT(s.lut, pq, c, s.scratch, false)
				t1 := time.Now()
				s.x.ScanListADC(s.sel, s.lut, c, false)
				scan += time.Since(t1)
				lut += t1.Sub(t0)
				vectors += s.x.Lists[c].Len()
			}
		}
		lutMS = append(lutMS, ms(lut))
		nsPerVec = append(nsPerVec, float64(scan.Nanoseconds())/float64(max(vectors, 1)))
	}
	m["ivf.lut_ms_per_query"] = median(lutMS)
	m["pq.scan_ns_per_vector"] = median(nsPerVec)
	return nil
}

// inProcess serves one POST straight through a handler, no sockets.
func inProcess(h http.Handler, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

func saveBytes(idx *anna.Index) ([]byte, error) {
	var buf bytes.Buffer
	err := idx.Save(&buf)
	return buf.Bytes(), err
}

// scrape reads a /metrics page into series -> value.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// counters is the delta of several /metrics pages (one per server) across
// the timed phase: scraped once before and once after, never during.
type counters struct {
	hc      *http.Client
	bases   []string
	before  []map[string]float64
	delta   map[string]float64
	seconds float64
}

func startCounters(hc *http.Client, bases ...string) (*counters, error) {
	c := &counters{hc: hc, bases: bases}
	for _, b := range bases {
		m, err := scrape(hc, b)
		if err != nil {
			return nil, err
		}
		c.before = append(c.before, m)
	}
	return c, nil
}

func (c *counters) stop(seconds float64) error {
	c.delta, c.seconds = map[string]float64{}, seconds
	for i, b := range c.bases {
		after, err := scrape(c.hc, b)
		if err != nil {
			return err
		}
		for k, v := range after {
			c.delta[k] += v - c.before[i][k]
		}
	}
	return nil
}

// sum adds the deltas of every series of the family (any labels).
func (c *counters) sum(family string) float64 {
	var s float64
	for k, v := range c.delta {
		if k == family || strings.HasPrefix(k, family+"{") {
			s += v
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// qosCounters fills the qos and wal metrics the servers export.
func (c *counters) emit(m map[string]float64) {
	hits, misses := c.sum("anna_cache_hits_total"), c.sum("anna_cache_misses_total")
	m["qos.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["qos.cache_evictions_per_s"] = c.sum("anna_cache_evictions_total") / c.seconds
	m["qos.cache_invalidations"] = c.sum("anna_cache_invalidations_total")
	m["qos.coalesce_wait_ms"] = 1e3 * ratio(c.sum("anna_batch_coalesce_wait_seconds_sum"), c.sum("anna_batch_coalesce_wait_seconds_count"))
	m["qos.batch_size_mean"] = ratio(c.sum("anna_batch_size_queries_sum"), c.sum("anna_batch_size_queries_count"))
	m["qos.batched_share"] = ratio(c.sum("anna_batch_size_queries_sum"), c.delta[`anna_request_duration_seconds_count{handler="search"}`])
	m["wal.fsync_ms"] = 1e3 * ratio(c.sum("anna_wal_fsync_duration_seconds_sum"), c.sum("anna_wal_fsync_duration_seconds_count"))
}

// ---- engine_batch ----

func (w *engineWL) layers(m map[string]float64, _ phaseStats, tr *tracer) error {
	blob, err := saveBytes(w.idx)
	if err != nil {
		return err
	}
	m["index_bytes_per_vector"] = float64(len(blob)) / float64(w.idx.Len())

	// One leg: the front door is SearchBatchContext, and its report
	// carries the engine's own stage times for the same call.
	calls := max(w.sz.traceOps/20, 4)
	var acc engineAcc
	var front []float64
	for i := 0; i < calls; i++ {
		batch := w.batchAt(i)
		var rep *anna.BatchReport
		d, err := tr.timeOp(i%2 == 0, "anna.search_batch", "", i, func() (err error) {
			rep, err = engineSearch(w.idx, batch)
			return err
		})
		if err != nil {
			return err
		}
		front = append(front, ms(d)/float64(len(batch)))
		acc.add(len(batch), d, rep)
	}
	layerSum := acc.emit(m, w.sz.batch)
	if err := ivfLeg(m, [][]byte{blob}, w.batchAt(0)[:min(w.sz.batch, 128)]); err != nil {
		return err
	}

	// The paper's Figure-5 pair, without rerank: cluster-major reads each
	// visited list once per batch, query-at-a-time once per query.
	for _, mode := range []struct {
		name string
		mode anna.SearchMode
	}{{"cm", anna.ClusterMajor}, {"qaat", anna.QueryAtATime}} {
		var qps []float64
		var listBytes, queries int64
		for i := 0; i < 4; i++ {
			rep, err := w.idx.SearchBatchContext(context.Background(), w.batchAt(i), anna.SearchOptions{W: searchW, K: searchK, Mode: mode.mode})
			if err != nil {
				return err
			}
			qps = append(qps, rep.QPS)
			listBytes += rep.ListBytesTouched
			queries += int64(w.sz.batch)
		}
		m["engine.pqonly_"+mode.name+"_qps"] = median(qps)
		m["engine.pqonly_"+mode.name+"_list_bytes_per_query"] = float64(listBytes) / float64(queries)
	}

	f := median(front)
	m["trace.front_door_ms"] = f
	m["trace.unattributed_share"] = 1 - ratio(layerSum, f)
	m["trace.overhead_share"] = overheadShare(front, func(int) bool { return true })
	return nil
}

// ---- serve_unique, serve_zipf ----

// traceOps is the traced window: for zipf the cache fill followed by the
// ops, from a generator of its own so every leg replays the same stream.
func (w *serveWL) traceOps() (fill, ops []int) {
	if w.zipf {
		mix := []*dataset.QueryMix{dataset.NewQueryMix(len(w.c.pool), 1.1, w.cfg.seed*1000+99)}
		fill = zipfFill(mix, w.sz.cacheFillDraws, cacheEntries)
		for i := 0; i < w.sz.traceOps; i++ {
			ops = append(ops, mix[0].Next())
		}
		return fill, ops
	}
	// The tail of the walk, which a 10 s timed phase does not reach.
	lo := w.sz.warmQ + len(w.c.walk) - w.sz.traceOps
	for i := 0; i < w.sz.traceOps; i++ {
		ops = append(ops, lo+i)
	}
	return nil, ops
}

func (w *serveWL) layers(m map[string]float64, _ phaseStats, tr *tracer) error {
	w.ctr.emit(m)
	blob, err := saveBytes(w.idx)
	if err != nil {
		return err
	}
	m["index_bytes_per_vector"] = float64(len(blob)) / float64(w.idx.Len())

	fill, ops := w.traceOps()
	n := len(ops)
	cl := &caller{hc: w.hc}

	// Inner leg, cache side: a benchmark-owned cache replays the stream.
	// It times the lookup (query code + Get) and labels each op hit or
	// miss; the servers of the outer legs, filled the same way, agree.
	shadow := qos.NewCache[struct{}](cacheEntries)
	var key []byte
	lookup := func(qi int) bool {
		key = w.idx.AppendQueryCode(key[:0], w.c.pool[qi])
		_, ok := shadow.Get(key, w.c.pool[qi])
		return ok
	}
	for _, qi := range fill {
		if !lookup(qi) {
			shadow.Put(key, w.c.pool[qi], struct{}{}, shadow.Gen())
		}
	}
	isHit := make([]bool, n)
	getMS := make([]float64, n)
	for i, qi := range ops {
		getMS[i], _ = tr.timeMS(i%2 == 0, "qos.cache_get", "serve.handler", i, func() error {
			isHit[i] = lookup(qi)
			return nil
		})
		if !isHit[i] {
			shadow.Put(key, w.c.pool[qi], struct{}{}, shadow.Gen())
		}
	}
	hits := 0
	for _, h := range isHit {
		if h {
			hits++
		}
	}
	// The median request is a hit when most are; the sum check follows it.
	major := func(i int) bool { return isHit[i] == (2*hits > n) }

	// Leg A: loopback HTTP, fresh server.
	a, err := serveIndex(w.idx, nil)
	if err != nil {
		return err
	}
	defer a.close()
	if err := postFill(cl, a.ln.url, w.c.pool, fill, w.validID); err != nil {
		return err
	}
	front := make([]float64, n)
	var reqBytes, respBytes float64
	for i, qi := range ops {
		front[i], err = tr.timeMS(i%2 == 0, "net.http", "", i, func() error {
			_, err := cl.search(a.ln.url, w.c.pool[qi], w.validID)
			return err
		})
		if err != nil {
			return err
		}
		reqBytes += float64(len(cl.body))
		respBytes += float64(cl.resp.Len())
	}

	// Leg B: the handler in process, fresh server.
	b, err := serveIndex(w.idx, nil)
	if err != nil {
		return err
	}
	defer b.close()
	for _, qs := range fillChunks(w.c.pool, fill) {
		if err := inProcess(b.h, "/search", searchBody(nil, qs, false)); err != nil {
			return err
		}
	}
	handler := make([]float64, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, qi := range ops {
		cl.body = searchBody(cl.body, [][]float32{w.c.pool[qi]}, false)
		handler[i], err = tr.timeMS(i%2 == 0, "serve.handler", "net.http", i, func() error {
			return inProcess(b.h, "/search", cl.body)
		})
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)

	// Leg C, miss side: a benchmark-owned batcher with default options
	// around SearchBatchContext, as the server wires it.
	var rep *anna.BatchReport
	var inner time.Duration
	opts := searchOpts
	opts.Mode = anna.ClusterMajor
	batcher := qos.NewBatcher(func(ctx context.Context, qs [][]float32, _, _ int) ([]struct{}, error) {
		t0 := time.Now()
		r, err := w.idx.SearchBatchContext(ctx, qs, opts)
		inner, rep = time.Since(t0), r
		return make([]struct{}, len(qs)), err
	}, qos.BatcherOptions{})
	defer batcher.Close()
	below := append([]float64(nil), getMS...) // what the handler's self time excludes, per op
	var acc engineAcc
	var submitSelf []float64
	for i, qi := range ops {
		if isHit[i] {
			continue
		}
		d, err := tr.timeOp(i%2 == 0, "qos.submit", "serve.handler", i, func() error {
			_, _, err := batcher.Submit(context.Background(), "default", qos.Interactive, 1, w.c.pool[qi], searchW, searchK)
			return err
		})
		if err != nil {
			return err
		}
		below[i] = ms(d)
		submitSelf = append(submitSelf, ms(d-inner))
		acc.add(1, inner, rep)
	}
	engineSum := acc.emit(m, 1)
	var missQ [][]float32
	for i, qi := range ops {
		if !isHit[i] && len(missQ) < 128 {
			missQ = append(missQ, w.c.pool[qi])
		}
	}
	if err := ivfLeg(m, [][]byte{blob}, missQ); err != nil {
		return err
	}

	m["qos.cache_get_us"] = 1e3 * median(getMS)
	m["qos.submit_self_ms"] = median(submitSelf)
	m["serve.handler_ms"] = median(handler)
	m["serve.hit_handler_ms"] = median(pick(handler, func(i int) bool { return isHit[i] }))
	handlerSelf, httpSelf := sub(handler, below), sub(front, handler)
	m["serve.handler_self_ms"] = median(pick(handlerSelf, major))
	m["net.http_self_ms"] = median(pick(httpSelf, major))
	m["serve.request_bytes"] = reqBytes / float64(n)
	m["serve.response_bytes"] = respBytes / float64(n)
	m["serve.allocs_per_request"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	layerSum := m["net.http_self_ms"] + m["serve.handler_self_ms"]
	if 2*hits > n {
		layerSum += median(pick(getMS, major))
	} else {
		layerSum += m["qos.submit_self_ms"] + engineSum
	}
	f := median(pick(front, major))
	m["trace.front_door_ms"] = f
	m["trace.unattributed_share"] = 1 - ratio(layerSum, f)
	m["trace.overhead_share"] = overheadShare(front, major)
	return nil
}

// ---- router3_mixed ----

func (w *routerWL) layers(m map[string]float64, ph phaseStats, tr *tracer) error {
	// The write path as the user saw it in the timed phase, and whether
	// what was acknowledged can be found.
	m["add_vps"], m["add_p50_ms"], m["add_p99_ms"] = ph.addVPS, ph.addP50, ph.addP99
	m["add_found_ratio"] = w.addFound()
	if m["add_found_ratio"] < 0.90 {
		w.fail("add_found_ratio %.4f < 0.90", m["add_found_ratio"])
	}
	var blobBytes int
	for _, b := range w.blobs {
		blobBytes += len(b)
	}
	m["index_bytes_per_vector"] = float64(blobBytes) / float64(w.sz.n)

	m["cluster.retries"] = w.rctr.sum("anna_shard_retries_total")
	m["cluster.hedges"] = w.rctr.sum("anna_shard_hedges_total")
	m["cluster.partials"] = w.rctr.sum("anna_partial_results_total")
	w.sctr.emit(m)
	var walBytes uint64
	for _, st := range w.cl.stores {
		_, _, b := st.WALStats()
		walBytes += b
	}
	m["wal.bytes_per_vector"] = ratio(float64(walBytes), float64(w.added.Load()))

	// The traced window: the same mix, one sequential client. Adds mutate
	// the shards, so each leg gets a cluster of its own loaded from the
	// bytes saved before the first add.
	rng := rand.New(rand.NewSource(w.cfg.seed*1000 + 99))
	ops := make([]traceOp, w.sz.traceOps)
	lo := len(w.c.walk) - w.sz.traceOps
	for i := range ops {
		if (i+1)%addEvery == 0 {
			ops[i].vecs = freshVectors(rng, w.c.rows)
		} else {
			ops[i].q = w.c.walk[lo+i]
		}
	}
	isSearch := func(i int) bool { return ops[i].q != nil }
	isAdd := func(i int) bool { return ops[i].q == nil }
	c := &caller{hc: w.hc}
	n := len(ops)

	// Leg A: the router's front door.
	a, _, err := w.freshCluster("legA")
	if err != nil {
		return err
	}
	defer a.close()
	front := make([]float64, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, o := range ops {
		front[i], err = tr.timeMS(i%2 == 0, "cluster.router", "", i, func() error {
			if o.q == nil {
				_, err := c.add(a.ln.url, o.vecs)
				return err
			}
			_, err := c.search(a.ln.url, o.q, w.validID)
			return err
		})
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)

	// Leg B: the same bodies straight to the shards, one after another,
	// tagged as router hops are. A search goes to all three; an add to
	// the shard the router's round robin chose.
	b, idxsB, err := w.freshCluster("legB")
	if err != nil {
		return err
	}
	defer b.close()
	shardMax, shardMean := make([]float64, n), make([]float64, n)
	localValid := func(id int64) bool { return id >= 0 && id < int64(w.sz.n) }
	adds := 0
	for i, o := range ops {
		if o.q == nil {
			s := b.shards[adds%nShards]
			adds++
			c.body = addBody(c.body, o.vecs)
			shardMax[i], err = tr.timeMS(i%2 == 0, "serve.shard", "cluster.router", i, func() error {
				return c.post(s.ln.url+"/add", "bench-"+strconv.Itoa(i))
			})
			if err != nil {
				return err
			}
			continue
		}
		c.body = searchBody(c.body, [][]float32{o.q}, true)
		for _, s := range b.shards {
			d, err := tr.timeMS(i%2 == 0, "serve.shard", "cluster.router", i, func() error {
				if err := c.post(s.ln.url+"/search", "bench-"+strconv.Itoa(i)); err != nil {
					return err
				}
				_, err := decodeSearch(c.resp.Bytes(), 1, localValid)
				return err
			})
			if err != nil {
				return err
			}
			shardMax[i] = max(shardMax[i], d)
			shardMean[i] += d / nShards
		}
	}

	// Engine side: the same searches on the three shard indexes directly.
	var acc engineAcc
	opts := searchOpts
	opts.Mode = anna.ClusterMajor
	var queries [][]float32
	for _, o := range ops {
		if o.q == nil {
			continue
		}
		if len(queries) < 128 {
			queries = append(queries, o.q)
		}
		reps := make([]*anna.BatchReport, nShards)
		t0 := time.Now()
		for s, idx := range idxsB {
			if reps[s], err = idx.SearchBatchContext(context.Background(), [][]float32{o.q}, opts); err != nil {
				return err
			}
		}
		acc.add(1, time.Since(t0), reps...)
	}
	acc.emit(m, 1)
	if err := ivfLeg(m, w.blobs, queries); err != nil {
		return err
	}

	// Write side: the shard's /add handler in process on one scratch
	// store, and its two halves (WAL append, index ingest) on another.
	if err := w.addLegs(m, tr, ops); err != nil {
		return err
	}

	hop := sub(front, shardMax)
	m["cluster.hop_self_ms"] = median(pick(hop, isSearch))
	m["cluster.add_hop_self_ms"] = median(pick(hop, isAdd))
	m["cluster.shard_ms_max"] = median(pick(shardMax, isSearch))
	m["cluster.shard_ms_mean"] = median(pick(shardMean, isSearch))
	m["cluster.allocs_per_request"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	f := median(pick(front, isSearch))
	m["trace.front_door_ms"] = f
	m["trace.unattributed_share"] = 1 - ratio(m["cluster.hop_self_ms"]+m["cluster.shard_ms_max"], f)
	m["trace.overhead_share"] = overheadShare(front, isSearch)
	return nil
}

// freshCluster starts a cluster over copies of the shard indexes as they
// were before the first add.
func (w *routerWL) freshCluster(name string) (*clusterUp, []*anna.Index, error) {
	idxs := make([]*anna.Index, nShards)
	for s, b := range w.blobs {
		idx, err := anna.LoadIndex(bytes.NewReader(b))
		if err != nil {
			return nil, nil, err
		}
		idxs[s] = idx
	}
	cl, err := startCluster(filepath.Join(w.tmp, name), idxs)
	return cl, idxs, err
}

// traceOp is one op of router3_mixed's traced window: a search (q) or an
// add (vecs).
type traceOp struct {
	q    []float32
	vecs [][]float32
}

func (w *routerWL) addLegs(m map[string]float64, tr *tracer, ops []traceOp) error {
	scratch := func(name string) (*anna.Index, *anna.Store, error) {
		idx, err := anna.LoadIndex(bytes.NewReader(w.blobs[0]))
		if err != nil {
			return nil, nil, err
		}
		st, err := anna.CreateStore(filepath.Join(w.tmp, name), idx, anna.StoreOptions{Sync: anna.SyncAlways})
		return idx, st, err
	}
	idxH, stH, err := scratch("addHandler")
	if err != nil {
		return err
	}
	defer stH.Close()
	srv := anna.NewServer(idxH)
	srv.Store = stH
	defer srv.Close()
	h := srv.Handler()
	idxD, stD, err := scratch("addDirect")
	if err != nil {
		return err
	}
	defer stD.Close()

	var handlerSelf, logAdd, ingest []float64
	for i, o := range ops {
		if o.q != nil {
			continue
		}
		body := addBody(nil, o.vecs)
		hd, err := tr.timeMS(i%2 == 0, "serve.add_handler", "serve.shard", i, func() error {
			return inProcess(h, "/add", body)
		})
		if err != nil {
			return err
		}
		ld, err := tr.timeMS(i%2 == 0, "durable.log_add", "serve.add_handler", i, func() error {
			return stD.LogAdd(idxD.NextID(), o.vecs)
		})
		if err != nil {
			return err
		}
		xd, err := tr.timeMS(i%2 == 0, "ivf.add", "serve.add_handler", i, func() error {
			_, err := idxD.Add(o.vecs)
			return err
		})
		if err != nil {
			return err
		}
		handlerSelf = append(handlerSelf, hd-ld-xd)
		logAdd = append(logAdd, ld)
		ingest = append(ingest, xd/addBatch)
	}
	m["serve.add_handler_self_ms"] = median(handlerSelf)
	m["durable.log_add_ms"] = median(logAdd)
	m["ivf.add_ms_per_vector"] = median(ingest)
	return nil
}
