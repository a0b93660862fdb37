// Package trace is the per-query introspection layer of the serving
// path: lightweight spans for the engine's stages (cluster select, list
// scan, top-k merge, re-rank), a lock-free ring buffer of recent query
// traces behind /debug/queries, and unique query IDs propagated from
// the X-Request-ID header through engine.RunContext into responses and
// logs.
//
// The design constraint is that the NON-traced path costs nothing: a
// query that is neither sampled nor explicitly tagged pays one atomic
// add (the sampling decision) and one context lookup — no allocations,
// no locks (verified by TestUnsampledPathAllocs and
// BenchmarkUnsampledDecision). All the bookkeeping — building the
// Trace, copying spans, logging slow queries — happens only for the
// sampled few or after a query has already proven slow.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a query. Durations for engine stages are
// summed across workers (CPU time, not wall clock), matching the
// anna_stage_duration_seconds histograms.
type Span struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Hop is one remote shard attempt of a routed request: the
// cluster-side child span the router records per try (primary, retry,
// or hedge), attributed with everything an operator needs to explain
// the hop — which shard, which attempt, whether it won the race, the
// breaker's state at the time, and the bytes read back.
type Hop struct {
	Shard int `json:"shard"`
	// Attempt numbers logical tries from 1; a hedge shares its
	// primary's attempt number (it races within the same try).
	Attempt int `json:"attempt"`
	// Kind is "primary", "retry", "hedge", or "fastfail" (the breaker
	// refused the request locally; nothing was sent).
	Kind string `json:"kind"`
	// Winner marks the attempt whose response the caller used.
	Winner bool `json:"winner,omitempty"`
	// Breaker is the shard breaker's state when the hop finished.
	Breaker string `json:"breaker,omitempty"`
	Status  int    `json:"status,omitempty"`
	Err     string `json:"error,omitempty"`
	// Bytes is the response body size read from the shard.
	Bytes int64 `json:"bytes,omitempty"`
	// Start is the hop's offset from the trace start; with Duration it
	// places the hop on the request's timeline.
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// Trace is the record of one served query batch. A Trace is built and
// mutated by a single goroutine (the request handler) — except Hops,
// which AddHop guards with a mutex because a scatter-gather router
// records them from concurrent per-shard goroutines — and becomes
// visible to concurrent readers only after Recorder.Record publishes it
// to the ring; it must not be mutated afterwards.
type Trace struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	// Total is the wall-clock duration of the whole request.
	Total time.Duration `json:"total_ns"`
	// Queries is the batch size; W/K are the effective search knobs.
	Queries int    `json:"queries"`
	W       int    `json:"w,omitempty"`
	K       int    `json:"k,omitempty"`
	Backend string `json:"backend,omitempty"`
	Status  int    `json:"status,omitempty"`
	// Scanned counts (query, vector) similarity computations.
	Scanned int64 `json:"scanned,omitempty"`
	// Tenant is the QoS tenant the request was attributed to.
	Tenant string `json:"tenant,omitempty"`
	// Batch is the size, in queries, of the engine batch the request's
	// queries rode in: its own plus any coalesced with them (0 when no
	// engine batch ran, e.g. a cache hit).
	Batch int `json:"batch,omitempty"`
	// CacheHit marks queries answered from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// ClustersScanned counts inverted lists actually scanned across the
	// batch — Queries*W on the fixed path, fewer when adaptive early
	// termination stopped scans early.
	ClustersScanned int64 `json:"clusters_scanned,omitempty"`
	// Escalated counts candidates re-scored through the SQ8 precision
	// escalation band (zero when escalation is off or nothing escalated).
	Escalated int64 `json:"escalated,omitempty"`
	// Effort is the adaptive controller's effort level when the query
	// was served (0 = lowest rung; only set under -recall-target).
	Effort int `json:"effort,omitempty"`
	// Slow marks traces captured because they crossed the slow-query
	// threshold (as opposed to being sampled or explicitly tagged).
	Slow  bool   `json:"slow,omitempty"`
	Spans []Span `json:"spans,omitempty"`
	// Parent names the upstream span this trace is a child of, parsed
	// from the X-Anna-Trace wire header (e.g. "shard2" when an
	// annarouter hop produced this shard-side trace).
	Parent string `json:"parent,omitempty"`
	// Hops are the cluster-side child spans: one per shard attempt.
	Hops []Hop `json:"hops,omitempty"`

	hopMu sync.Mutex
}

// New returns a Trace started now with the given query ID.
func New(id string) *Trace {
	return &Trace{ID: id, Start: time.Now()}
}

// AddSpan appends one named stage duration.
func (t *Trace) AddSpan(name string, d time.Duration) {
	t.Spans = append(t.Spans, Span{Name: name, Duration: d})
}

// Stages is the engine's account of one search batch: the time in each
// of the paper's stages and the work counted along the way. A trace's
// stage spans are those of the engine batch its request rode in, which
// may hold other requests' queries too.
type Stages struct {
	Select, Scan, Rerank, Merge  time.Duration
	Scanned, Clusters, Escalated int64
}

// AddStages attaches one engine batch to the trace: select, scan and
// merge spans (rerank only when escalation ran) and the work counts.
func (t *Trace) AddStages(st Stages) {
	t.AddSpan("select", st.Select)
	t.AddSpan("scan", st.Scan)
	if st.Rerank > 0 {
		t.AddSpan("rerank", st.Rerank)
	}
	t.AddSpan("merge", st.Merge)
	t.Scanned += st.Scanned
	t.ClustersScanned += st.Clusters
	t.Escalated += st.Escalated
}

// AddHop appends one cluster hop. Unlike AddSpan it is safe for
// concurrent use: a router's scatter records hops from one goroutine
// per shard.
func (t *Trace) AddHop(h Hop) {
	t.hopMu.Lock()
	t.Hops = append(t.Hops, h)
	t.hopMu.Unlock()
}

// SpanDuration returns the duration of the named span, or zero.
func (t *Trace) SpanDuration(name string) time.Duration {
	for _, s := range t.Spans {
		if s.Name == name {
			return s.Duration
		}
	}
	return 0
}

// Finish stamps the total wall-clock duration and response status.
func (t *Trace) Finish(status int) {
	t.Total = time.Since(t.Start)
	t.Status = status
}

// ctxKey is the private context key type for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying t, for propagation into the layers
// below the caller (a router's shard hops record into it).
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the Trace carried by ctx, or nil. The nil path is
// allocation-free, so instrumented code may call it unconditionally.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// idPrefix is a per-process random prefix so IDs from different server
// instances don't collide; idCounter makes them unique within one.
var (
	idPrefix  = func() string { var b [4]byte; rand.Read(b[:]); return hex.EncodeToString(b[:]) }()
	idCounter atomic.Uint64
)

// NewID returns a unique query ID: an 8-hex-digit process prefix plus a
// monotonic counter.
func NewID() string {
	return idPrefix + "-" + strconv.FormatUint(idCounter.Add(1), 16)
}

// HeaderWire is the cross-process trace-context header: a router (or
// any other upstream) stamps it on outbound shard requests so the
// shard's trace shares the caller's ID and names its parent span. The
// value is "<trace-id>;parent=<span>"; the parent part is optional.
const HeaderWire = "X-Anna-Trace"

// wireParentPrefix separates the trace ID from the parent span name in
// HeaderWire values.
const wireParentPrefix = ";parent="

// FormatWire renders a HeaderWire value carrying id and, when non-empty,
// the parent span name. Only traced requests pay this allocation.
func FormatWire(id, parent string) string {
	if parent == "" {
		return id
	}
	return id + wireParentPrefix + parent
}

// ParseWire splits a HeaderWire value into trace ID and parent span
// name. Absent or malformed headers yield ("", ""). The empty-header
// path allocates nothing (substring slicing only), so servers may call
// it unconditionally on every request — pinned, with FromContext, by
// TestUnsampledPathAllocs.
func ParseWire(h string) (id, parent string) {
	if h == "" {
		return "", ""
	}
	if i := strings.Index(h, wireParentPrefix); i >= 0 {
		return h[:i], h[i+len(wireParentPrefix):]
	}
	return h, ""
}

// Ring is a lock-free fixed-capacity buffer of the most recent traces.
// Writers claim slots with one atomic add and publish with one atomic
// pointer store; readers snapshot without blocking writers. Under
// concurrent writes a reader may miss a trace that is being overwritten
// — acceptable for a debug surface, and the price of zero coordination.
type Ring struct {
	slots []atomic.Pointer[Trace]
	mask  uint64
	pos   atomic.Uint64
}

// NewRing returns a ring holding the last n traces (n is rounded up to
// a power of two; minimum 2).
func NewRing(n int) *Ring {
	size := 2
	for size < n {
		size *= 2
	}
	return &Ring{slots: make([]atomic.Pointer[Trace], size), mask: uint64(size - 1)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Put publishes t, evicting the oldest trace once the ring is full.
func (r *Ring) Put(t *Trace) {
	i := r.pos.Add(1) - 1
	r.slots[i&r.mask].Store(t)
}

// Snapshot returns the currently held traces, newest first.
func (r *Ring) Snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	pos := r.pos.Load()
	for i := uint64(0); i < uint64(len(r.slots)); i++ {
		// Walk backwards from the most recently claimed slot.
		t := r.slots[(pos-1-i)&r.mask].Load()
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Get returns the held trace with the given ID, or nil.
func (r *Ring) Get(id string) *Trace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// Recorder decides which queries are traced and retains the results: a
// 1-in-N sample plus everything that crossed the slow-query threshold,
// in a Ring, with slow queries additionally logged.
type Recorder struct {
	ring *Ring
	// sampleEvery is the 1-in-N sampling rate (0 disables sampling;
	// explicitly tagged and slow queries are still recorded).
	sampleEvery int64
	// slow is the slow-query threshold (0 disables the slow log).
	slow   time.Duration
	logger *slog.Logger

	n       atomic.Int64
	sampled atomic.Uint64
	slowQ   atomic.Uint64
}

// NewRecorder returns a recorder keeping the last ringSize traces,
// sampling 1-in-sampleEvery queries (0 = none), and treating queries at
// or above slow as slow (0 = never). logger receives slow-query lines
// and may be nil.
func NewRecorder(ringSize, sampleEvery int, slow time.Duration, logger *slog.Logger) *Recorder {
	if ringSize <= 0 {
		ringSize = 256
	}
	return &Recorder{
		ring:        NewRing(ringSize),
		sampleEvery: int64(sampleEvery),
		slow:        slow,
		logger:      logger,
	}
}

// ShouldSample reports whether the next query falls in the 1-in-N
// sample. It is a single atomic add — safe and cheap on the hot path.
func (rec *Recorder) ShouldSample() bool {
	if rec.sampleEvery <= 0 {
		return false
	}
	return rec.n.Add(1)%rec.sampleEvery == 0
}

// SlowThreshold returns the configured slow-query threshold (0 = off).
func (rec *Recorder) SlowThreshold() time.Duration { return rec.slow }

// IsSlow reports whether d crosses the slow-query threshold.
func (rec *Recorder) IsSlow(d time.Duration) bool {
	return rec.slow > 0 && d >= rec.slow
}

// Record publishes a finished trace to the ring and logs it when slow.
// The trace must not be mutated afterwards.
func (rec *Recorder) Record(t *Trace) {
	rec.sampled.Add(1)
	if rec.IsSlow(t.Total) {
		t.Slow = true
		rec.slowQ.Add(1)
		if rec.logger != nil {
			rec.logger.Warn("slow query",
				"query_id", t.ID,
				"total", t.Total,
				"queries", t.Queries,
				"w", t.W, "k", t.K,
				"backend", t.Backend,
				"status", t.Status,
				"select", t.SpanDuration("select"),
				"scan", t.SpanDuration("scan"),
				"rerank", t.SpanDuration("rerank"),
				"merge", t.SpanDuration("merge"),
				"clusters_scanned", t.ClustersScanned,
				"escalated", t.Escalated,
				"effort", t.Effort,
			)
		}
	}
	rec.ring.Put(t)
}

// Recorded returns how many traces have been recorded and how many of
// those were slow.
func (rec *Recorder) Recorded() (total, slow uint64) {
	return rec.sampled.Load(), rec.slowQ.Load()
}

// Snapshot returns the retained traces, newest first.
func (rec *Recorder) Snapshot() []*Trace { return rec.ring.Snapshot() }

// Get returns the retained trace with the given ID, or nil.
func (rec *Recorder) Get(id string) *Trace { return rec.ring.Get(id) }
