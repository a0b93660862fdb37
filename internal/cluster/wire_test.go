package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anna/internal/httpx"
	"anna/internal/wire"
)

// The router always speaks frames to its shards, whatever its client
// spoke, and answers its client in the client's codec.
func TestRouterSpeaksFramesToShards(t *testing.T) {
	var shardCT atomic.Value
	spy := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			shardCT.Store(r.Header.Get("Content-Type"))
			next.ServeHTTP(w, r)
		})
	}
	var ids atomic.Int64
	mux := func(results []searchResult) http.Handler {
		m := http.NewServeMux()
		m.Handle("/search", staticSearchShard(results))
		m.Handle("/add", addShard(&ids))
		return spy(m)
	}
	rt := fakeShardSet(t, []http.Handler{
		mux([]searchResult{{ID: 1, Score: 0.9}, {ID: 2, Score: 0.5}}),
		mux([]searchResult{{ID: 0, Score: 0.8}}),
	}, fastOpts())
	t.Cleanup(rt.Close)
	h := rt.Handler()

	req := searchRequest{Queries: [][]float32{{0, 1}, {2, 3}}, K: 3}
	_, viaJSON := postSearch(t, h, req)
	if got := shardCT.Load(); got != wire.FrameContentType {
		t.Fatalf("a JSON client's search reached the shards as %q", got)
	}

	frame, err := wire.AppendSearchRequestFrame(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(frame))
	r.Header.Set("Content-Type", wire.FrameContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != wire.FrameContentType {
		t.Fatalf("frame search: status %d, Content-Type %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	var viaFrame searchResponse
	if _, err := wire.DecodeSearchReplyFrame(&viaFrame, rec.Body.Bytes(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(viaFrame.Results) != 2 || len(viaFrame.Results[0]) != 3 {
		t.Fatalf("frame reply %+v", viaFrame)
	}
	for q := range viaJSON.Results {
		for j := range viaJSON.Results[q] {
			if viaFrame.Results[q][j] != viaJSON.Results[q][j] {
				t.Fatalf("query %d result %d: frame client got %+v, JSON client %+v", q, j, viaFrame.Results[q][j], viaJSON.Results[q][j])
			}
		}
	}

	// /add takes the same path, and the stripe rewrite happens in between.
	add, _ := wire.AppendAddRequestFrame(nil, &addRequest{Vectors: [][]float32{{1, 2}, {3, 4}}})
	r = httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(add))
	r.Header.Set("Content-Type", wire.FrameContentType)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	ar, err := wire.DecodeAddReplyFrame(rec.Body.Bytes())
	if rec.Code != http.StatusOK || err != nil || ar.Count != 2 {
		t.Fatalf("frame add: status %d, reply %+v, err %v", rec.Code, ar, err)
	}
	if shard := rec.Header().Get(HeaderShard); ar.FirstID/DefaultStride != int64(shard[0]-'0') {
		t.Fatalf("first_id %d not in shard %s's stripe", ar.FirstID, shard)
	}
	if got := shardCT.Load(); got != wire.FrameContentType {
		t.Fatalf("add reached the shard as %q", got)
	}
}

// What a frame cannot carry is what no shard would accept; the router
// answers the 400 itself, in JSON.
func TestRouterRefusesWhatFramesCannotCarry(t *testing.T) {
	var hits atomic.Int32
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	rt := fakeShardSet(t, []http.Handler{counted}, fastOpts())
	t.Cleanup(rt.Close)
	h := rt.Handler()
	// k over wire.MaxK, which a frame can carry but the merge would size
	// a selector from, is internal/httpx's TestFrontDoorContract.
	for name, c := range map[string]struct{ contentType, body string }{
		"ragged queries":  {wire.JSONContentType, `{"queries":[[1,2],[3]]}`},
		"empty query":     {wire.JSONContentType, `{"queries":[[]]}`},
		"unknown backend": {wire.JSONContentType, `{"queries":[[1]],"backend":"gpu"}`},
	} {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(c.body))
		r.Header.Set("Content-Type", c.contentType)
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), `{"error":`) {
			t.Errorf("%s: status %d body %s", name, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", strings.NewReader(`{"vectors":[[1,2],[3]]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("ragged add: status %d", rec.Code)
	}
	if hits.Load() != 0 {
		t.Errorf("%d requests reached a shard", hits.Load())
	}
}

// A 200 the router cannot decode is a failed attempt, not a silent loss
// of coverage: it is counted in anna_shard_failures_total, fed to the
// breaker, and recorded with its error on the attempt's hop.
func TestRouterCountsMalformedShardReply(t *testing.T) {
	truncating := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		staticSearchShard([]searchResult{{ID: 7, Score: 0.7}}).ServeHTTP(rec, r)
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.Write(rec.Body.Bytes()[:rec.Body.Len()-5])
	})
	opt := fastOpts()
	opt.Retries = -1
	opt.BreakerFailures = 2
	opt.BreakerCooldown = time.Hour
	rt := fakeShardSet(t, []http.Handler{
		truncating,
		staticSearchShard([]searchResult{{ID: 1, Score: 0.9}}),
	}, opt)
	t.Cleanup(rt.Close)
	h := rt.Handler()

	rec := postSearchTagged(t, h, "malformed-1", searchRequest{Queries: [][]float32{{0}}, K: 4})
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderPartial) != "shards=1/2" {
		t.Fatalf("status %d, %s=%q", rec.Code, HeaderPartial, rec.Header().Get(HeaderPartial))
	}
	bad := rt.shards[0]
	if got := bad.Stats().Failures.Load(); got != 1 {
		t.Fatalf("malformed reply counted as %d failures, want 1", got)
	}
	tr, _ := routerTrace(t, h, "malformed-1")
	hops := hopsFor(tr, 0)
	if len(hops) != 1 || hops[0].Status != http.StatusOK || hops[0].Winner || !strings.Contains(hops[0].Err, "malformed") {
		t.Fatalf("shard 0 hops %+v, want one losing 200 hop carrying the decode error", hops)
	}
	// The second one trips the breaker; the third is refused locally.
	postSearch(t, h, searchRequest{Queries: [][]float32{{0}}, K: 4})
	if bad.Breaker().State() != "open" {
		t.Fatalf("breaker %s after two malformed replies, want open", bad.Breaker().State())
	}
	postSearch(t, h, searchRequest{Queries: [][]float32{{0}}, K: 4})
	if bad.Stats().FastFails.Load() != 1 {
		t.Fatalf("fast fails %d, want 1", bad.Stats().FastFails.Load())
	}
	if good := rt.shards[1]; good.Stats().Failures.Load() != 0 || good.Breaker().State() != "closed" {
		t.Fatal("the healthy shard was blamed")
	}
}

// A router keeps enough idle connections per shard that concurrent
// scatters reuse them: 8 clients open at most 8 connections to each
// shard, however many searches they send. (On http.DefaultTransport,
// which keeps 2, this opened a connection for most hops.)
//
// Two waits make the count exact rather than likely. Each shard holds
// its first 8 requests until all 8 have arrived, so the first wave dials
// exactly one connection per client: without the gate, a connection
// released early is handed to a request whose own dial is still in
// flight, and that dial then lands in the pool as a ninth connection.
// And each client sends its next search only after the transport's
// PutIdleConn hook has fired for every hop of the last one, so all its
// connections are idle again before it asks for one.
func TestRouterReusesShardConnections(t *testing.T) {
	const clients, searches = 8, 50
	var opened [3]atomic.Int32
	bases := make([]string, len(opened))
	for i := range opened {
		var arrived atomic.Int32
		wave := make(chan struct{})
		shard := staticSearchShard([]searchResult{{ID: 1, Score: 0.9}})
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n := arrived.Add(1); n <= clients {
				if n == clients {
					close(wave)
				}
				<-wave
			}
			shard.ServeHTTP(w, r)
		}))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		bases[i] = ts.URL
	}
	opt := fastOpts()
	opt.Timeout = 10 * time.Second // the gated first wave must not time out into a re-dial
	rt, err := New(Config{Shards: bases, Shard: opt})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	body, _ := wire.AppendSearchRequestFrame(nil, &searchRequest{Queries: [][]float32{{0, 1}}})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Room for two searches' hops: a hook must never block the
			// transport's read loop, even on a retried hop's extra put.
			idle := make(chan error, 2*len(bases))
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				PutIdleConn: func(err error) { idle <- err },
			})
			for i := 0; i < searches; i++ {
				r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)).WithContext(ctx)
				r.Header.Set("Content-Type", wire.FrameContentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				if rec.Code != http.StatusOK || rec.Header().Get(HeaderPartial) != "" {
					t.Errorf("status %d, partial %q", rec.Code, rec.Header().Get(HeaderPartial))
					return
				}
				for range bases {
					select {
					case err := <-idle:
						if err != nil {
							t.Errorf("connection not returned to the pool: %v", err)
							return
						}
					case <-time.After(10 * time.Second):
						t.Error("a hop's connection never went back to the pool")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range opened {
		if n := opened[i].Load(); n > clients {
			t.Errorf("shard %d: %d connections opened for %d concurrent clients", i, n, clients)
		}
	}
	rt.Close() // closes the idle connections with the router
}

// cannedTransport answers every request with the same frame, no sockets:
// what is left to measure is the router's own work.
type cannedTransport struct{ reply []byte }

func (c cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {wire.FrameContentType}},
		Body:          io.NopCloser(bytes.NewReader(c.reply)),
		ContentLength: int64(len(c.reply)),
		Request:       r,
	}, nil
}

// The router's own allocations for one JSON search over three shards:
// decode, re-frame, three hops through Shard.do and http.Client (request,
// per-attempt context and timer, reply body), merge, encode. Everything
// the handler owns is pooled, so what remains is per hop: 124 measured
// (135–139 under -race, where sync.Pool drops a quarter of its Puts),
// against 198 for the same probe when the router re-marshalled JSON for
// its shards and unmarshalled three JSON replies.
func TestRouterSearchAllocs(t *testing.T) {
	reply := &searchResponse{Results: [][]searchResult{make([]searchResult, 10)}}
	for i := range reply.Results[0] {
		reply.Results[0][i] = searchResult{ID: int64(i), Score: 1 / float32(i+1)}
	}
	opt := fastOpts()
	canned, _ := wire.Frame.AppendSearchReply(nil, reply)
	opt.Client = &http.Client{Transport: cannedTransport{canned}}
	rt, err := New(Config{Shards: []string{"http://s0", "http://s1", "http://s2"}, Shard: opt, Options: httpx.Options{TraceSampleEvery: -1, ScrapeEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	q := make([]float32, 64)
	for i := range q {
		q[i] = float32(i) / 7
	}
	body, err := json.Marshal(searchRequest{Queries: [][]float32{q}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get(HeaderPartial) != "" {
			t.Fatalf("status %d, partial %q: %s", rec.Code, rec.Header().Get(HeaderPartial), rec.Body)
		}
	}
	for i := 0; i < 16; i++ {
		run()
	}
	avg := testing.AllocsPerRun(200, run)
	t.Logf("router allocs per /search: %.1f", avg)
	if avg > 145 {
		t.Errorf("router allocs per /search %.1f, want <= 145", avg)
	}
}
