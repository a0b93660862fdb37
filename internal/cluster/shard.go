package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/httpx"
	"anna/internal/qos"
	"anna/internal/trace"
	"anna/internal/wire"
)

// ErrShardDown is returned when a shard's circuit breaker is open (or
// its half-open probe is already taken): the request was not sent.
var ErrShardDown = errors.New("cluster: shard circuit open")

// HeaderRequestID is the request-ID header propagated from router
// clients through every shard hop, matching annaserve's contract.
const HeaderRequestID = httpx.HeaderRequestID

// reqIDKey carries the request ID through a scatter so every shard hop
// can stamp HeaderRequestID without threading an extra parameter
// through Shard.Do's many call sites.
type reqIDKey struct{}

// WithRequestID returns ctx carrying the request ID for outbound hops.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// ShardOptions configure every remote hop to one shard.
type ShardOptions struct {
	// Timeout is the per-attempt deadline for search/read requests
	// (default 2s). Each retry and hedge gets its own.
	Timeout time.Duration
	// AddTimeout is the per-attempt deadline for add requests (default
	// 10s — an add pays WAL fsync and ingest encode).
	AddTimeout time.Duration
	// Retries is the number of re-sends after a failed idempotent
	// request (0 = default 2, -1 = disabled). Non-idempotent requests
	// are never retried regardless.
	Retries int
	// Backoff shapes the delay between retries (zero value = qos
	// defaults: 50ms base, 2s cap, doubling, ±50% jitter).
	Backoff qos.Backoff
	// RetryBudgetRatio is the retry-budget deposit per request: with
	// 0.1 (the default), sustained traffic earns one retry per ten
	// requests, so retries can amplify load by at most 10% — a
	// struggling shard is never hammered with a retry storm.
	RetryBudgetRatio float64
	// RetryBudgetBurst caps the accumulated budget (default 10 tokens).
	RetryBudgetBurst float64
	// HedgeAfter enables hedged requests: when an idempotent request
	// has been in flight for the shard's observed p99 latency (clamped
	// to [HedgeAfter, HedgeMax]), a second identical request races it
	// and the first response wins. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeMax caps the hedge delay (default 10×HedgeAfter).
	HedgeMax time.Duration
	// BreakerFailures and BreakerCooldown configure the circuit
	// breaker (defaults 5 consecutive failures, 1s cooldown).
	BreakerFailures int
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests). Per-attempt deadlines
	// still come from Timeout/AddTimeout via context. Left nil, a Router
	// gives its shards one client over a transport of its own (see New);
	// a Shard made on its own falls back to http.DefaultClient.
	Client *http.Client
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.AddTimeout <= 0 {
		o.AddTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBudgetRatio <= 0 {
		o.RetryBudgetRatio = 0.1
	}
	if o.RetryBudgetBurst <= 0 {
		o.RetryBudgetBurst = 10
	}
	if o.HedgeAfter > 0 && o.HedgeMax <= 0 {
		o.HedgeMax = 10 * o.HedgeAfter
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// ShardStats are the lifetime counters of one shard client, all
// atomically updated (exported through the router's /metrics).
type ShardStats struct {
	Requests  atomic.Uint64 // attempts sent (incl. retries and hedges)
	Retries   atomic.Uint64
	Hedges    atomic.Uint64
	Failures  atomic.Uint64 // attempts that ended in transport error / 5xx
	FastFails atomic.Uint64 // requests refused locally by the open breaker
}

// retryBudget is a token bucket that bounds retry amplification:
// every request deposits ratio tokens, every retry or hedge spends one.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	burst  float64
}

func (rb *retryBudget) deposit() {
	rb.mu.Lock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.burst {
		rb.tokens = rb.burst
	}
	rb.mu.Unlock()
}

func (rb *retryBudget) spend() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// latRing records recent successful-attempt latencies for the hedge
// delay: a fixed ring of nanosecond samples, written lock-free.
type latRing struct {
	slots [128]atomic.Int64
	next  atomic.Uint64
	n     atomic.Uint64
}

func (lr *latRing) observe(d time.Duration) {
	i := lr.next.Add(1) - 1
	lr.slots[i%uint64(len(lr.slots))].Store(int64(d))
	if lr.n.Load() < uint64(len(lr.slots)) {
		lr.n.Add(1)
	}
}

// p99 returns the 99th-percentile recent latency, or 0 with no samples.
func (lr *latRing) p99() time.Duration {
	n := lr.n.Load()
	if n > uint64(len(lr.slots)) {
		n = uint64(len(lr.slots))
	}
	if n == 0 {
		return 0
	}
	buf := make([]int64, n)
	for i := range buf {
		buf[i] = lr.slots[i].Load()
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return time.Duration(buf[(int(n)-1)*99/100])
}

// Shard is the hardened client for one annaserve replica. All methods
// are safe for concurrent use.
type Shard struct {
	Index int    // position in the router's shard list (= ID stripe)
	Base  string // base URL, e.g. "http://10.0.0.7:7080"

	opt     ShardOptions
	breaker *Breaker
	budget  *retryBudget
	lat     *latRing
	stats   ShardStats
}

// NewShard returns a client for the replica at base.
func NewShard(index int, base string, opt ShardOptions) *Shard {
	opt = opt.withDefaults()
	return &Shard{
		Index:   index,
		Base:    base,
		opt:     opt,
		breaker: NewBreaker(opt.BreakerFailures, opt.BreakerCooldown),
		budget:  &retryBudget{ratio: opt.RetryBudgetRatio, burst: opt.RetryBudgetBurst},
		lat:     &latRing{},
	}
}

// Breaker exposes the shard's circuit breaker (metrics, tests).
func (s *Shard) Breaker() *Breaker { return s.breaker }

// Stats exposes the shard's lifetime counters.
func (s *Shard) Stats() *ShardStats { return &s.stats }

// result is one attempt's outcome, and one shard's reply to a scatter.
type result struct {
	status int
	body   []byte
	err    error
}

// bad reports whether the attempt counts as a shard failure: transport
// error or 5xx. 4xx is the caller's problem, not the shard's.
func (r result) bad() bool { return r.err != nil || r.status >= 500 }

// Do sends one request to the shard with the full hardening stack:
// breaker fast-fail, per-attempt timeout, hedging (idempotent only),
// budgeted retries with jittered backoff. It returns the final status
// and body; err is non-nil only when no response was obtained at all.
// A body, when there is one, is a wire frame and is labelled as such:
// shards are the same binary as the router and speak frames.
func (s *Shard) Do(ctx context.Context, method, path string, body []byte, idempotent bool) (int, []byte, error) {
	return s.do(ctx, method, path, body, idempotent, nil)
}

// do is Do with a verdict on 200 bodies: a reply check refuses is a
// failed attempt like a truncated body is — counted in Failures, fed to
// the breaker, recorded with its error on the attempt's hop, retried
// within the budget — instead of a success the caller then cannot use.
// check runs on attempt goroutines, concurrently under hedging.
func (s *Shard) do(ctx context.Context, method, path string, body []byte, idempotent bool, check func(reply []byte) error) (int, []byte, error) {
	if !s.breaker.Allow() {
		s.stats.FastFails.Add(1)
		if tr := trace.FromContext(ctx); tr != nil {
			// Nothing was sent, but the refusal must still be attributed:
			// a stitched trace with a missing shard and no explanation is
			// worse than no trace at all.
			tr.AddHop(trace.Hop{
				Shard:   s.Index,
				Kind:    "fastfail",
				Breaker: s.breaker.State(),
				Err:     ErrShardDown.Error(),
				Start:   time.Since(tr.Start),
			})
		}
		return 0, nil, fmt.Errorf("%w: %s", ErrShardDown, s.Base)
	}
	s.budget.deposit()
	attempts := 1
	if idempotent {
		attempts += s.opt.Retries
	}
	var last result
	for try := 0; ; try++ {
		last = s.attempt(ctx, method, path, body, idempotent, try, check)
		if !last.bad() {
			s.breaker.Success()
			return last.status, last.body, nil
		}
		s.breaker.Failure()
		s.stats.Failures.Add(1)
		if try+1 >= attempts || !s.budget.spend() {
			break
		}
		s.stats.Retries.Add(1)
		select {
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		case <-time.After(s.opt.Backoff.Delay(try)):
		}
	}
	if last.err != nil {
		return 0, nil, last.err
	}
	return last.status, last.body, nil
}

// attempt runs one logical try: a single request, or — when hedging is
// enabled and the primary is slow — a primary/hedge race where the
// first acceptable response wins and the loser is canceled. try numbers
// logical tries from 0 and shapes the recorded hop kind.
func (s *Shard) attempt(ctx context.Context, method, path string, body []byte, idempotent bool, try int, check func([]byte) error) result {
	tr := trace.FromContext(ctx)
	kind := "primary"
	if try > 0 {
		kind = "retry"
	}
	if !idempotent || s.opt.HedgeAfter <= 0 {
		start := time.Now()
		r := s.once(ctx, method, path, body, idempotent, check)
		s.recordHop(tr, r, kind, try+1, start, !r.bad())
		return r
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// raced carries the attempt's kind and start alongside its result so
	// the coordinator — the only goroutine that records hops — can
	// attribute whatever it reads. A canceled loser's result is sent into
	// the buffer but never read, so it never records a hop: a trace shows
	// exactly the attempts whose outcome mattered.
	type raced struct {
		res   result
		kind  string
		start time.Time
	}
	ch := make(chan raced, 2)
	launch := func(k string) {
		st := time.Now()
		ch <- raced{res: s.once(actx, method, path, body, idempotent, check), kind: k, start: st}
	}
	go launch(kind)
	outstanding := 1
	hedged := false
	timer := time.NewTimer(s.hedgeDelay())
	defer timer.Stop()
	var last result
	for {
		select {
		case rr := <-ch:
			outstanding--
			win := !rr.res.bad()
			s.recordHop(tr, rr.res, rr.kind, try+1, rr.start, win)
			if win {
				return rr.res // cancel (deferred) reels the loser in
			}
			last = rr.res
			if outstanding == 0 {
				return last
			}
		case <-timer.C:
			// Primary still in flight past the hedge delay: race a
			// second copy, if the budget allows and we have not already.
			if !hedged && s.budget.spend() {
				hedged = true
				s.stats.Hedges.Add(1)
				outstanding++
				go launch("hedge")
			}
		case <-ctx.Done():
			return result{err: ctx.Err()}
		}
	}
}

// recordHop attributes one finished attempt to the request's trace.
// No-op (and allocation-free) when the request is untraced.
func (s *Shard) recordHop(tr *trace.Trace, r result, kind string, attempt int, start time.Time, winner bool) {
	if tr == nil {
		return
	}
	h := trace.Hop{
		Shard:    s.Index,
		Attempt:  attempt,
		Kind:     kind,
		Winner:   winner,
		Breaker:  s.breaker.State(),
		Status:   r.status,
		Bytes:    int64(len(r.body)),
		Start:    start.Sub(tr.Start),
		Duration: time.Since(start),
	}
	if r.err != nil {
		h.Err = r.err.Error()
	}
	tr.AddHop(h)
}

// hedgeDelay is the observed p99 clamped to [HedgeAfter, HedgeMax];
// with no samples yet it is HedgeMax (hedge late, not eagerly).
func (s *Shard) hedgeDelay() time.Duration {
	d := s.lat.p99()
	if d < s.opt.HedgeAfter {
		d = s.opt.HedgeAfter
	}
	if d > s.opt.HedgeMax {
		d = s.opt.HedgeMax
	}
	if d <= 0 {
		d = s.opt.HedgeMax
	}
	return d
}

// once sends exactly one HTTP request with its own per-attempt deadline.
func (s *Shard) once(ctx context.Context, method, path string, body []byte, idempotent bool, check func([]byte) error) result {
	timeout := s.opt.Timeout
	if !idempotent {
		timeout = s.opt.AddTimeout
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, s.Base+path, rd)
	if err != nil {
		return result{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", wire.FrameContentType)
	}
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(HeaderRequestID, id)
	}
	if tr := trace.FromContext(ctx); tr != nil {
		// Cross-process trace context: the shard's own trace adopts this
		// ID and names its parent span, so the router can stitch the
		// shard-side view into its cluster trace afterwards.
		req.Header.Set(trace.HeaderWire, trace.FormatWire(tr.ID, "shard"+strconv.Itoa(s.Index)))
	}
	s.stats.Requests.Add(1)
	start := time.Now()
	resp, err := s.opt.Client.Do(req)
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	b, err := wire.ReadBody(nil, resp.Body, resp.ContentLength)
	if err != nil {
		// A truncated body (connection cut mid-response) is a failed
		// attempt even with a 200 status line — callers must never see
		// half a response.
		return result{err: fmt.Errorf("cluster: reading %s%s response: %w", s.Base, path, err)}
	}
	if resp.StatusCode == http.StatusOK && check != nil {
		if err := check(b); err != nil {
			return result{status: resp.StatusCode, body: b, err: fmt.Errorf("cluster: %s%s reply: %w", s.Base, path, err)}
		}
	}
	if resp.StatusCode < 500 {
		s.lat.observe(time.Since(start))
	}
	return result{status: resp.StatusCode, body: b}
}
