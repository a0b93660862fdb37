package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"anna/internal/trace"
)

// Router-side observability (docs/ARCHITECTURE.md §4k): httpx owns the
// tsdb, SLO engine and trace endpoints; what the router adds is the
// per-shard time breakdown on /debug/queries and, on /debug/trace/{id},
// the stitch of its cluster trace with the shard-side traces recorded
// under the same ID.

// shardBreakdown wraps one /debug/queries trace with its total hop time
// per shard.
func shardBreakdown(t *trace.Trace) any {
	type entry struct {
		Trace  any              `json:"trace"`
		Shards map[string]int64 `json:"shard_ns,omitempty"` // total hop time per shard
	}
	e := entry{Trace: t}
	if len(t.Hops) > 0 {
		e.Shards = make(map[string]int64, len(t.Hops))
		for _, h := range t.Hops {
			e.Shards[strconv.Itoa(h.Shard)] += int64(h.Duration)
		}
	}
	return e
}

// stitchTimeout bounds each shard-side trace fetch during stitching.
const stitchTimeout = 2 * time.Second

// stitch builds the /debug/trace/{id} body on demand: the router's own
// trace (hops included) plus each touched shard's /debug/trace/{id}
// view of the same request. The shard fetches go through the raw HTTP
// client, not Shard.Do — a debug read must not perturb serving stats,
// the retry budget, or the breaker.
func (rt *Router) stitch(r *http.Request, t *trace.Trace) any {
	touched := map[int]bool{}
	for _, h := range t.Hops {
		touched[h.Shard] = true
	}
	shardTraces := make(map[string]json.RawMessage, len(touched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for idx := range touched {
		s := rt.shards[idx]
		wg.Add(1)
		go func(idx int, s *Shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), stitchTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Base+"/debug/trace/"+t.ID, nil)
			if err != nil {
				return
			}
			resp, err := s.opt.Client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
				// A shard without the trace (evicted, restarted) just
				// leaves its slot out of the stitch.
				return
			}
			mu.Lock()
			shardTraces[strconv.Itoa(idx)] = body
			mu.Unlock()
		}(idx, s)
	}
	wg.Wait()
	return map[string]any{
		"trace":        t,
		"shard_traces": shardTraces,
	}
}
