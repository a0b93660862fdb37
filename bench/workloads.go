package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anna"
	"anna/internal/cluster"
	"anna/internal/dataset"
)

// env is what one run's workload works with.
type env struct {
	cfg     config
	sz      sizes
	clients int
	tmp     string
	hc      *http.Client
	bad     []string // named reasons the run's outputs are incorrect
}

// fail records a failed correctness check; the run goes on and reports
// itself incorrect.
func (e *env) fail(format string, args ...any) { e.bad = append(e.bad, fmt.Sprintf(format, args...)) }

// workload is one of the four traffic shapes. setup covers everything
// setup_s reports; teardown stops every server and goroutine setup
// started.
type workload interface {
	setup() error
	teardown()
	corpus() *corpus
	// recallSearch sends each query through the front door and returns
	// the base-vector row of every result (-1 for a vector added later),
	// how many queries failed and the first failure.
	recallSearch(qs [][]float32) (rows [][]int64, failed int, first error)
	// timed is the closed-loop measured phase, span recording off.
	timed(d time.Duration) ([]sample, error)
	// layers runs the traced pass and fills the per-layer metrics.
	layers(m map[string]float64, ph phaseStats, tr *tracer) error
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16},
	}
}

// listener is one loopback HTTP server.
type listener struct {
	url string
	hs  *http.Server
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}}
	go l.hs.Serve(ln) // returns ErrServerClosed once close is called
	return l, nil
}

func (l *listener) close() { l.hs.Close() }

// hit is one result on the wire.
type hit struct {
	ID    int64   `json:"id"`
	Score float32 `json:"score"`
}

// caller is one client's reusable request/response state; it is not
// shared between goroutines.
type caller struct {
	hc   *http.Client
	body []byte
	resp bytes.Buffer
}

// searchBody renders {"queries":[q...]}; the servers' defaults (W=32,
// K=10) are the benchmark's search setting. knobs appends the explicit
// w and k a router adds before it fans out.
func searchBody(dst []byte, qs [][]float32, knobs bool) []byte {
	dst = appendVectors(append(dst[:0], `{"queries":`...), qs)
	if knobs {
		dst = append(dst, `,"w":`+strconv.Itoa(searchW)+`,"k":`+strconv.Itoa(searchK)...)
	}
	return append(dst, '}')
}

func addBody(dst []byte, vecs [][]float32) []byte {
	return append(appendVectors(append(dst[:0], `{"vectors":`...), vecs), '}')
}

func appendVectors(dst []byte, vecs [][]float32) []byte {
	dst = append(dst, '[')
	for i, v := range vecs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, f := range v {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, float64(f), 'g', -1, 32)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// post sends c.body and leaves the response in c.resp. A non-200 is an
// error: on these workloads no operation may fail.
func (c *caller) post(url, reqID string) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(cluster.HeaderRequestID, reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := io.Copy(&c.resp, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, c.resp.Bytes())
	}
	return nil
}

// decodeSearch parses a /search response of nq rows, checks each and
// returns its IDs.
func decodeSearch(body []byte, nq int, valid func(int64) bool) ([][]int64, error) {
	var sr struct {
		Results [][]hit `json:"results"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("malformed response: %w", err)
	}
	if len(sr.Results) != nq {
		return nil, fmt.Errorf("%d result rows for %d queries", len(sr.Results), nq)
	}
	out := make([][]int64, nq)
	for i, row := range sr.Results {
		if err := checkRow(len(row), func(j int) (int64, float32) { return row[j].ID, row[j].Score }, valid); err != nil {
			return nil, err
		}
		for _, h := range row {
			out[i] = append(out[i], h.ID)
		}
	}
	return out, nil
}

// search is one single-query POST /search, checked.
func (c *caller) search(base string, q []float32, valid func(int64) bool) ([]int64, error) {
	c.body = searchBody(c.body, [][]float32{q}, false)
	if err := c.post(base+"/search", ""); err != nil {
		return nil, err
	}
	rows, err := decodeSearch(c.resp.Bytes(), 1, valid)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// add is one POST /add; it returns the first assigned ID.
func (c *caller) add(base string, vecs [][]float32) (int64, error) {
	c.body = addBody(c.body, vecs)
	if err := c.post(base+"/add", ""); err != nil {
		return 0, err
	}
	var ar struct {
		FirstID int64 `json:"first_id"`
		Count   int   `json:"count"`
	}
	if err := json.Unmarshal(c.resp.Bytes(), &ar); err != nil {
		return 0, fmt.Errorf("malformed add response: %w", err)
	}
	if ar.Count != len(vecs) {
		return 0, fmt.Errorf("add acknowledged %d of %d vectors", ar.Count, len(vecs))
	}
	return ar.FirstID, nil
}

// fanOut runs fn(caller, i) for i in [0,n) over the env's clients.
func (e *env) fanOut(n int, fn func(c *caller, i int) error) (failed int, first error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < e.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := &caller{hc: e.hc}
			for i := k; i < n; i += e.clients {
				if err := fn(c, i); err != nil {
					mu.Lock()
					failed++
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	return failed, first
}

// counted is closedLoop over the env's clients. On a -trace 1 run it also
// scrapes each group of /metrics pages once before and once after the
// phase, never during it, and returns one delta per group.
func (e *env) counted(d time.Duration, op func(caller, i int) (bool, int, error), groups ...[]string) ([]sample, []*counters, error) {
	if !e.cfg.trace {
		samples, first := closedLoop(e.clients, d, op)
		return samples, make([]*counters, len(groups)), first
	}
	ctrs := make([]*counters, len(groups))
	for i, bases := range groups {
		c, err := startCounters(e.hc, bases...)
		if err != nil {
			return nil, nil, err
		}
		ctrs[i] = c
	}
	samples, first := closedLoop(e.clients, d, op)
	for _, c := range ctrs {
		if err := c.stop(d.Seconds()); err != nil {
			return nil, nil, err
		}
	}
	return samples, ctrs, first
}

// ---- engine_batch ----

// engineWL: one caller, SearchBatchContext over batches of distinct
// queries. No HTTP, no qos, no cluster: ivf/pq/simd/engine do the work.
type engineWL struct {
	*env
	c   *corpus
	idx *anna.Index
}

func (w *engineWL) corpus() *corpus { return w.c }
func (w *engineWL) teardown()       {}

func (w *engineWL) setup() error {
	w.c = genCorpus(w.sz, w.cfg.seed)
	idx, err := buildIndex(w.c.rows, w.sz.nClusters, w.cfg.seed)
	if err != nil {
		return err
	}
	w.idx = idx
	for lo := 0; lo+w.sz.batch <= len(w.c.warm); lo += w.sz.batch {
		if _, err := engineSearch(idx, w.c.warm[lo:lo+w.sz.batch]); err != nil {
			return err
		}
	}
	return nil
}

// batchAt is the i-th batch of the walk; batches never overlap until the
// walk wraps, and nothing caches on this path.
func (w *engineWL) batchAt(i int) [][]float32 {
	per := len(w.c.walk) / w.sz.batch
	lo := (i % per) * w.sz.batch
	return w.c.walk[lo : lo+w.sz.batch]
}

func (w *engineWL) recallSearch(qs [][]float32) ([][]int64, int, error) {
	out := make([][]int64, len(qs))
	rep, err := engineSearch(w.idx, qs)
	if err != nil {
		return out, len(qs), err
	}
	for i, row := range rep.Results {
		for _, r := range row {
			out[i] = append(out[i], r.ID)
		}
	}
	return out, 0, nil
}

func (w *engineWL) timed(d time.Duration) ([]sample, error) {
	return closedLoop(1, d, func(_, i int) (bool, int, error) {
		_, err := engineSearch(w.idx, w.batchAt(i))
		return false, w.sz.batch, err
	})
}

// ---- serve_unique, serve_zipf ----

// serveWL: one anna.Server with shipped defaults behind a loopback
// listener, single-query POST /search from every client. unique walks the
// pool so no query repeats (hit ratio 0: every request pays decode,
// admission, batcher, engine, encode); zipf draws Zipf-1.1 over the whole
// pool (working set > cache, but skewed: the median is the hit path).
type serveWL struct {
	*env
	zipf  bool
	c     *corpus
	idx   *anna.Index
	srv   *served
	mixes []*dataset.QueryMix // zipf: one generator per client
	next  atomic.Int64        // unique: position in the walk
	ctr   *counters           // the server's /metrics across the timed phase (-trace 1)
}

// served is one anna.Server on a listener.
type served struct {
	srv *anna.Server
	h   http.Handler
	ln  *listener
}

func serveIndex(idx *anna.Index, store *anna.Store) (*served, error) {
	srv := anna.NewServer(idx)
	srv.Adaptive.Policy = rerankPolicy
	srv.Store = store
	s := &served{srv: srv, h: srv.Handler()}
	ln, err := listen(s.h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.ln = ln
	return s, nil
}

func (s *served) close() {
	s.ln.close()
	s.srv.Close()
}

func (w *serveWL) corpus() *corpus { return w.c }

func (w *serveWL) teardown() {
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

func (w *serveWL) validID(id int64) bool { return id >= 0 && id < int64(w.sz.n) }

func (w *serveWL) setup() error {
	w.c = genCorpus(w.sz, w.cfg.seed)
	idx, err := buildIndex(w.c.rows, w.sz.nClusters, w.cfg.seed)
	if err != nil {
		return err
	}
	w.idx = idx
	if w.srv, err = serveIndex(idx, nil); err != nil {
		return err
	}
	w.next.Store(0)
	// Warm-up on the slice the walk never touches: connections, pools,
	// the batcher's timers.
	if _, err := w.fanOut(len(w.c.warm), func(c *caller, i int) error {
		_, err := c.search(w.srv.ln.url, w.c.warm[i], w.validID)
		return err
	}); err != nil {
		return err
	}
	if w.zipf {
		w.mixes = make([]*dataset.QueryMix, w.clients)
		for k := range w.mixes {
			w.mixes[k] = dataset.NewQueryMix(len(w.c.pool), 1.1, w.cfg.seed*1000+int64(k))
		}
		return w.fillCache()
	}
	return nil
}

// zipfFill draws n indices round-robin from the generators and returns
// the most recently used distinct ones, oldest first, at most limit: the
// content an LRU of that size holds after serving the draws.
func zipfFill(mixes []*dataset.QueryMix, n, limit int) []int {
	draws := make([]int, n)
	for i := range draws {
		draws[i] = mixes[i%len(mixes)].Next()
	}
	seen := map[int]bool{}
	var recent []int
	for i := n - 1; i >= 0 && len(recent) < limit; i-- {
		if !seen[draws[i]] {
			seen[draws[i]] = true
			recent = append(recent, draws[i])
		}
	}
	for i, j := 0, len(recent)-1; i < j; i, j = i+1, j-1 {
		recent[i], recent[j] = recent[j], recent[i]
	}
	return recent
}

const cacheEntries = 4096 // anna.Server's default CacheSize

// fillCache brings the server's result cache to the state it has after
// serving cacheFillDraws of the clients' streams, without serving them one
// by one: multi-query requests go straight to the engine and every row is
// cached.
func (w *serveWL) fillCache() error {
	return postFill(&caller{hc: w.hc}, w.srv.ln.url, w.c.pool, zipfFill(w.mixes, w.sz.cacheFillDraws, cacheEntries), w.validID)
}

// fillChunks groups the fill's queries into multi-query requests.
func fillChunks(pool [][]float32, fill []int) [][][]float32 {
	const chunk = 512
	var out [][][]float32
	for lo := 0; lo < len(fill); lo += chunk {
		var qs [][]float32
		for _, qi := range fill[lo:min(lo+chunk, len(fill))] {
			qs = append(qs, pool[qi])
		}
		out = append(out, qs)
	}
	return out
}

func postFill(c *caller, base string, pool [][]float32, fill []int, valid func(int64) bool) error {
	for _, qs := range fillChunks(pool, fill) {
		c.body = searchBody(c.body, qs, false)
		if err := c.post(base+"/search", ""); err != nil {
			return err
		}
		if _, err := decodeSearch(c.resp.Bytes(), len(qs), valid); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWL) recallSearch(qs [][]float32) ([][]int64, int, error) {
	out := make([][]int64, len(qs))
	failed, first := w.fanOut(len(qs), func(c *caller, i int) (err error) {
		out[i], err = c.search(w.srv.ln.url, qs[i], w.validID)
		return err
	})
	return out, failed, first
}

func (w *serveWL) timed(d time.Duration) ([]sample, error) {
	if w.zipf {
		// Whatever ran since set-up (the recall pass) displaced part of
		// the cache; start from steady state.
		if err := w.fillCache(); err != nil {
			return nil, err
		}
	}
	callers := make([]*caller, w.clients)
	for k := range callers {
		callers[k] = &caller{hc: w.hc}
	}
	samples, ctrs, err := w.counted(d, func(k, _ int) (bool, int, error) {
		var q []float32
		if w.zipf {
			q = w.c.pool[w.mixes[k].Next()]
		} else {
			// The walk is 15 times the cache, so even a wrap cannot hit.
			q = w.c.walk[int(w.next.Add(1)-1)%len(w.c.walk)]
		}
		_, err := callers[k].search(w.srv.ln.url, q, w.validID)
		return false, 1, err
	}, []string{w.srv.ln.url})
	w.ctr = ctrs[0]
	return samples, err
}

// ---- router3_mixed ----

const (
	nShards   = 3
	addEvery  = 20 // every 20th op of a client is an add
	addBatch  = 16 // vectors per add
	addJitter = 0.05
)

// routerWL: cluster.Router over three loopback shards, each a third of
// the corpus served from a durable anna.Store (WAL SyncAlways). The only
// workload with hops, re-marshalling, merge and ID striping, and the only
// one with writes beside reads.
type routerWL struct {
	*env
	c     *corpus
	blobs [][]byte // each shard's index as saved before any add
	cl    *clusterUp
	next  atomic.Int64 // position in the walk
	added atomic.Int64 // vectors acknowledged so far
	rctr  *counters    // the router's /metrics across the timed phase (-trace 1)
	sctr  *counters    // the shards', summed

	mu    sync.Mutex
	acked []ackedVec // one per acknowledged add, for add_found_ratio
}

type ackedVec struct {
	id  int64
	vec []float32
}

// clusterUp is a running router with its shards.
type clusterUp struct {
	shards []*served
	stores []*anna.Store
	rt     *cluster.Router
	ln     *listener
}

func (cl *clusterUp) close() {
	if cl.ln != nil {
		cl.ln.close()
	}
	if cl.rt != nil {
		cl.rt.Close()
	}
	for _, s := range cl.shards {
		s.close()
	}
	for _, st := range cl.stores {
		st.Close()
	}
}

// startCluster serves each index from a fresh durable store under dir and
// puts a router in front.
func startCluster(dir string, idxs []*anna.Index) (*clusterUp, error) {
	cl := &clusterUp{}
	var urls []string
	for i, idx := range idxs {
		st, err := anna.CreateStore(filepath.Join(dir, "shard"+strconv.Itoa(i)), idx, anna.StoreOptions{Sync: anna.SyncAlways})
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.stores = append(cl.stores, st)
		s, err := serveIndex(idx, st)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.shards = append(cl.shards, s)
		urls = append(urls, s.ln.url)
	}
	rt, err := cluster.New(cluster.Config{Shards: urls})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.rt = rt
	if cl.ln, err = listen(rt.Handler()); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

func (w *routerWL) corpus() *corpus { return w.c }

func (w *routerWL) teardown() {
	if w.cl != nil {
		w.cl.close()
		w.cl = nil
	}
}

// shardLen is how many base vectors shard s holds: row r lives on shard
// r%3 as local ID r/3.
func (w *routerWL) shardLen(s int) int { return (w.sz.n - s + nShards - 1) / nShards }

// decodeID splits a router ID (shard*2^40 + local) and maps it back to
// its base row, or -1 for a vector added during the run.
func (w *routerWL) decodeID(id int64) (shard int, local int64, row int64) {
	shard, local = int(id/cluster.DefaultStride), id%cluster.DefaultStride
	if shard < nShards && local < int64(w.shardLen(shard)) {
		return shard, local, nShards*local + int64(shard)
	}
	return shard, local, -1
}

func (w *routerWL) validID(id int64) bool {
	shard, local, _ := w.decodeID(id)
	return id >= 0 && shard < nShards && local < int64(w.shardLen(shard))+w.added.Load()+addBatch*int64(w.clients)
}

func (w *routerWL) setup() error {
	w.c = genCorpus(w.sz, w.cfg.seed)
	idxs := make([]*anna.Index, nShards)
	w.blobs = make([][]byte, nShards)
	for s := range idxs {
		var rows [][]float32
		for r := s; r < len(w.c.rows); r += nShards {
			rows = append(rows, w.c.rows[r])
		}
		idx, err := buildIndex(rows, w.sz.shardClusters, w.cfg.seed)
		if err != nil {
			return err
		}
		if w.blobs[s], err = saveBytes(idx); err != nil {
			return err
		}
		idxs[s] = idx
	}
	cl, err := startCluster(filepath.Join(w.tmp, "timed"+strconv.FormatInt(time.Now().UnixNano(), 36)), idxs)
	if err != nil {
		return err
	}
	w.cl = cl
	w.next.Store(0)
	w.added.Store(0)
	w.acked = nil
	_, err = w.fanOut(len(w.c.warm), func(c *caller, i int) error {
		_, err := c.search(cl.ln.url, w.c.warm[i], w.validID)
		return err
	})
	return err
}

func (w *routerWL) recallSearch(qs [][]float32) ([][]int64, int, error) {
	out := make([][]int64, len(qs))
	failed, first := w.fanOut(len(qs), func(c *caller, i int) error {
		ids, err := c.search(w.cl.ln.url, qs[i], w.validID)
		for _, id := range ids {
			_, _, row := w.decodeID(id)
			out[i] = append(out[i], row)
		}
		return err
	})
	return out, failed, first
}

// freshVectors are addBatch near-duplicates of random base rows: the row
// plus 0.05*N(0,1) per component, so no two adds are alike and each has a
// known nearest neighbour (itself).
func freshVectors(rng *rand.Rand, rows [][]float32) [][]float32 {
	out := make([][]float32, addBatch)
	for i := range out {
		base := rows[rng.Intn(len(rows))]
		v := make([]float32, len(base))
		for j, f := range base {
			v[j] = f + addJitter*float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func (w *routerWL) timed(d time.Duration) ([]sample, error) {
	callers := make([]*caller, w.clients)
	rngs := make([]*rand.Rand, w.clients)
	for k := range callers {
		callers[k] = &caller{hc: w.hc}
		rngs[k] = rand.New(rand.NewSource(w.cfg.seed*1000 + int64(k)))
	}
	var shardURLs []string
	for _, s := range w.cl.shards {
		shardURLs = append(shardURLs, s.ln.url)
	}
	samples, ctrs, err := w.counted(d, func(k, i int) (bool, int, error) {
		if (i+1)%addEvery == 0 {
			vecs := freshVectors(rngs[k], w.c.rows)
			first, err := callers[k].add(w.cl.ln.url, vecs)
			if err != nil {
				return true, addBatch, err
			}
			w.added.Add(addBatch)
			w.mu.Lock()
			w.acked = append(w.acked, ackedVec{id: first, vec: vecs[0]})
			w.mu.Unlock()
			return true, addBatch, nil
		}
		q := w.c.walk[int(w.next.Add(1)-1)%len(w.c.walk)]
		_, err := callers[k].search(w.cl.ln.url, q, w.validID)
		return false, 1, err
	}, []string{w.cl.ln.url}, shardURLs)
	w.rctr, w.sctr = ctrs[0], ctrs[1]
	return samples, err
}

// addFound searches the router for a sample of the acknowledged vectors
// and returns the share that come back under their own ID.
func (w *routerWL) addFound() float64 {
	if len(w.acked) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	c := &caller{hc: w.hc}
	found, n := 0, min(w.sz.addFound, len(w.acked))
	for _, p := range rng.Perm(len(w.acked))[:n] {
		a := w.acked[p]
		ids, err := c.search(w.cl.ln.url, a.vec, w.validID)
		if err != nil {
			continue
		}
		for _, id := range ids {
			if id == a.id {
				found++
				break
			}
		}
	}
	return float64(found) / float64(n)
}
