package httpx_test

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"anna"
	"anna/internal/cluster"
	"anna/internal/httpx"
	"anna/internal/metrics"
	"anna/internal/wire"
)

// door is one front door under the contract: its handler and registry.
type door struct {
	name string
	h    http.Handler
	reg  *metrics.Registry
}

// doors returns annaserve (anna.Server) and annarouter (cluster.Router
// over one annaserve shard), both with MaxBatch 2 and no scraper, and
// the count of requests that reached the router's shard.
func doors(t *testing.T) ([]door, *atomic.Int64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(1))
	vecs := make([][]float32, 120)
	for i := range vecs {
		vecs[i] = []float32{rnd.Float32(), rnd.Float32(), rnd.Float32(), rnd.Float32()}
	}
	idx, err := anna.BuildIndex(vecs, anna.L2, anna.BuildOptions{NClusters: 4, M: 2, Ks: 16, TrainIters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(maxBatch int) *anna.Server {
		s := anna.NewServer(idx)
		s.MaxBatch, s.ScrapeEvery = maxBatch, -1
		t.Cleanup(s.Close)
		return s
	}
	srv := serve(2)
	hits := new(atomic.Int64)
	sh := serve(1024).Handler()
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		sh.ServeHTTP(w, r)
	}))
	t.Cleanup(shard.Close)
	rt, err := cluster.New(cluster.Config{Shards: []string{shard.URL}, Limits: httpx.Limits{MaxBatch: 2}, Options: httpx.Options{ScrapeEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return []door{{"annaserve", srv.Handler(), srv.Metrics()}, {"annarouter", rt.Handler(), rt.Metrics()}}, hits
}

// zeros streams n zero bytes of unknown length.
type zeros struct{ n int64 }

func (z *zeros) Read(p []byte) (int, error) {
	if z.n <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), z.n)]
	clear(p)
	z.n -= int64(len(p))
	return len(p), nil
}

func frame(t *testing.T, req *wire.SearchRequest) string {
	b, err := wire.AppendSearchRequestFrame(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Both doors answer the same refused request with the same status and
// byte-identical JSON error body, count it under
// anna_http_requests_total{handler,code}, and keep serving afterwards.
// The router refuses every row itself: none reaches its shard, so a
// shard's identical verdict relayed back cannot stand in for its own.
func TestFrontDoorContract(t *testing.T) {
	q := []float32{0.1, 0.2, 0.3, 0.4}
	cases := []struct {
		name, method, path, contentType string
		body                            string
		length                          int64 // ContentLength override: -1 streams MaxBody+1 bytes
		code                            int
	}{
		{"wrong method search", http.MethodGet, "/search", "", "", 0, http.StatusMethodNotAllowed},
		{"wrong method add", http.MethodGet, "/add", "", "", 0, http.StatusMethodNotAllowed},
		{"undecodable json", http.MethodPost, "/search", wire.JSONContentType, "{", 0, http.StatusBadRequest},
		{"undecodable frame", http.MethodPost, "/search", wire.FrameContentType, "\x01", 0, http.StatusBadRequest},
		{"no queries", http.MethodPost, "/search", wire.JSONContentType, `{"queries":[]}`, 0, http.StatusBadRequest},
		{"batch over MaxBatch json", http.MethodPost, "/search", wire.JSONContentType,
			`{"queries":[[1,2,3,4],[1,2,3,4],[1,2,3,4]]}`, 0, http.StatusBadRequest},
		{"batch over MaxBatch frame", http.MethodPost, "/search", wire.FrameContentType,
			frame(t, &wire.SearchRequest{Queries: [][]float32{q, q, q}}), 0, http.StatusBadRequest},
		// Unbounded, this k sizes a 32 GiB result arena and the process dies.
		{"k over MaxK json", http.MethodPost, "/search", wire.JSONContentType,
			`{"queries":[[1,2,3,4]],"k":2147483647}`, 0, http.StatusBadRequest},
		{"k over MaxK frame", http.MethodPost, "/search", wire.FrameContentType,
			frame(t, &wire.SearchRequest{Queries: [][]float32{q}, K: wire.MaxK + 1}), 0, http.StatusBadRequest},
		{"no vectors", http.MethodPost, "/add", wire.JSONContentType, `{"vectors":[]}`, 0, http.StatusBadRequest},
		{"declared oversize search json", http.MethodPost, "/search", wire.JSONContentType,
			`{"queries":[[1,2,3,4]]}`, httpx.MaxBody + 1, http.StatusRequestEntityTooLarge},
		{"declared oversize search frame", http.MethodPost, "/search", wire.FrameContentType,
			frame(t, &wire.SearchRequest{Queries: [][]float32{q}}), httpx.MaxBody + 1, http.StatusRequestEntityTooLarge},
		{"declared oversize add json", http.MethodPost, "/add", wire.JSONContentType,
			`{"vectors":[[1,2,3,4]]}`, httpx.MaxBody + 1, http.StatusRequestEntityTooLarge},
		{"streamed oversize search json", http.MethodPost, "/search", wire.JSONContentType, "", -1, http.StatusRequestEntityTooLarge},
		{"streamed oversize add frame", http.MethodPost, "/add", wire.FrameContentType, "", -1, http.StatusRequestEntityTooLarge},
	}
	ds, shardHits := doors(t)
	for _, c := range cases {
		var bodies [2]string
		for i, d := range ds {
			var rd io.Reader = strings.NewReader(c.body)
			if c.length < 0 {
				rd = &zeros{n: httpx.MaxBody + 1}
			}
			r := httptest.NewRequest(c.method, c.path, rd)
			if c.length != 0 {
				r.ContentLength = c.length
			}
			if c.contentType != "" {
				r.Header.Set("Content-Type", c.contentType)
			}
			rec := httptest.NewRecorder()
			d.h.ServeHTTP(rec, r)
			bodies[i] = rec.Body.String()
			if rec.Code != c.code || rec.Header().Get("Content-Type") != wire.JSONContentType ||
				!strings.HasPrefix(bodies[i], `{"error":`) {
				t.Errorf("%s %s: status %d, Content-Type %q, body %.120s; want %d and a JSON error",
					d.name, c.name, rec.Code, rec.Header().Get("Content-Type"), bodies[i], c.code)
			}
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: error bodies differ:\n  %s: %s  %s: %s", c.name, ds[0].name, bodies[0], ds[1].name, bodies[1])
		}
	}
	if n := shardHits.Load(); n != 0 {
		t.Errorf("annarouter sent %d refused requests on to its shard; want 0", n)
	}

	for _, d := range ds {
		var m bytes.Buffer
		d.reg.WriteText(&m)
		for _, series := range []string{
			`anna_http_requests_total{handler="search",code="405"} 1`,
			`anna_http_requests_total{handler="search",code="413"} 3`,
			`anna_http_requests_total{handler="add",code="413"} 2`,
		} {
			if !strings.Contains(m.String(), series+"\n") {
				t.Errorf("%s: /metrics lacks %s", d.name, series)
			}
		}
		// Still serving, and the request ID contract: echoed when sent,
		// generated otherwise.
		for _, id := range []string{"contract-7", ""} {
			r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"queries":[[0.1,0.2,0.3,0.4]],"k":3}`))
			if id != "" {
				r.Header.Set(httpx.HeaderRequestID, id)
			}
			rec := httptest.NewRecorder()
			d.h.ServeHTTP(rec, r)
			got := rec.Header().Get(httpx.HeaderRequestID)
			if rec.Code != http.StatusOK || got == "" || (id != "" && got != id) {
				t.Errorf("%s: search after refusals: status %d, X-Request-ID %q (sent %q): %s", d.name, rec.Code, got, id, rec.Body)
			}
		}
	}
}
