// Package httpx is the HTTP skeleton annaserve (anna.Server) and
// annarouter (cluster.Router) share: their logging, tracing and SLO
// options, instrumentation, error and reply writers, request-ID and
// trace adoption, bounded body decoding, tsdb + SLO wiring, common
// endpoints, and the two commands' flags and signal/drain loop. What
// only one door has stays with it (docs/ARCHITECTURE.md §4m).
package httpx

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anna/internal/metrics"
	"anna/internal/slo"
	"anna/internal/trace"
	"anna/internal/tsdb"
	"anna/internal/wire"
)

// HeaderRequestID carries the query ID, echoed on every response and
// propagated on every router→shard hop.
const HeaderRequestID = "X-Request-ID"

// Options are the logging, tracing and SLO knobs of both front doors.
// The trace knobs are read at the first request that needs the
// recorder, the scrape and SLO knobs when the door starts its tsdb.
type Options struct {
	// Logger receives slow queries, SLO transitions, and encode and write
	// failures (default slog.Default()).
	Logger *slog.Logger
	// TraceSampleEvery traces 1-in-N /search requests that did not opt
	// in with an X-Request-ID or X-Anna-Trace header (default 64;
	// negative disables sampling). A traced routed request records one
	// hop per shard attempt and stamps the wire context on each, so the
	// shards' traces stitch under the same ID via /debug/trace/{id}.
	TraceSampleEvery int
	// SlowQuery is the latency above which a /search request is logged
	// and captured even when untraced (default 250ms; negative disables).
	SlowQuery time.Duration
	// TraceRingSize bounds the recent traces behind /debug/queries
	// (default 256, rounded up to a power of two).
	TraceRingSize int
	// ScrapeEvery is how often the embedded tsdb snapshots the serving
	// counters (behind /debug/tsdb) and the SLO engine ticks (default
	// 10s; negative disables the tsdb, the SLO engine, /alerts and
	// /debug/dash).
	ScrapeEvery time.Duration
	// SLOLatencyP99 enables the latency SLO: at most 1% of /search
	// requests may be slower than this bound (snapped to the nearest
	// latency-histogram bucket edge). Zero disables it.
	SLOLatencyP99 time.Duration
	// SLOAvailability enables the availability SLO with this objective
	// (0.999 = at most 0.1% of requests may end in 5xx; on the router a
	// partial-coverage answer costs half an error). Zero disables it.
	SLOAvailability float64
	// SLOOptions override the burn-rate windows and thresholds (zero
	// values = the 5m/1h + 30m/6h defaults); tests shrink them.
	SLOOptions slo.Options
}

// Log returns the configured logger, or slog.Default().
func (o *Options) Log() *slog.Logger {
	return cmp.Or(o.Logger, slog.Default())
}

// Front is one door's shared state: request counters and latency
// histograms, the trace recorder, and the tsdb + SLO engine.
type Front struct {
	*Options // read lazily: the embedding Server's knobs may be set after NewFront
	reg      *metrics.Registry
	duration map[string]*metrics.Histogram
	resps    atomic.Uint64 // responses served (tsdb availability signal)
	resps5xx atomic.Uint64 // responses with a 5xx status

	recOnce sync.Once
	rec     *trace.Recorder
	obsOnce sync.Once
	db      *tsdb.DB
	eng     *slo.Engine
}

// NewFront returns the front door over opt, with one
// anna_request_duration_seconds histogram per handler name in reg.
func NewFront(opt *Options, reg *metrics.Registry, handlers ...string) *Front {
	f := &Front{Options: opt, reg: reg, duration: make(map[string]*metrics.Histogram, len(handlers))}
	for _, h := range handlers {
		f.duration[h] = reg.Histogram("anna_request_duration_seconds",
			"Wall-clock request latency by handler.", nil,
			metrics.Label{Key: "handler", Value: h})
	}
	return f
}

// Duration returns the latency histogram of a handler named at NewFront.
func (f *Front) Duration(handler string) *metrics.Histogram { return f.duration[handler] }

// Recorder returns the trace recorder, built from the trace knobs on
// first use.
func (f *Front) Recorder() *trace.Recorder {
	f.recOnce.Do(func() {
		sample := cmp.Or(f.TraceSampleEvery, 64)
		slow := cmp.Or(f.SlowQuery, 250*time.Millisecond)
		f.rec = trace.NewRecorder(f.TraceRingSize, sample, slow, f.Log())
	})
	return f.rec
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Instrument wraps a handler that serves one method: any other is
// answered 405. Every request is counted under
// anna_http_requests_total{handler,code}, timed under
// anna_request_duration_seconds{handler}, and fed to the tsdb's
// availability counters.
func (f *Front) Instrument(name, method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if r.Method != method {
			f.HTTPError(sw, http.StatusMethodNotAllowed, "%s required", method)
		} else {
			h(sw, r)
		}
		f.duration[name].ObserveDuration(time.Since(start))
		f.resps.Add(1)
		if sw.code >= 500 {
			f.resps5xx.Add(1)
		}
		f.reg.Counter("anna_http_requests_total", "Requests by handler and status code.",
			metrics.Label{Key: "handler", Value: name},
			metrics.Label{Key: "code", Value: strconv.Itoa(sw.code)}).Inc()
	}
}

// HTTPError sends the {"error": …} JSON body of every non-200 either
// door writes itself, whatever codec the request spoke.
func (f *Front) HTTPError(w http.ResponseWriter, code int, format string, args ...any) {
	f.JSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// JSON sends v with the given status. Content-Type is set before the
// status line goes out, and encode failures — a closed connection, an
// unmarshalable value — are logged rather than swallowed.
func (f *Front) JSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", wire.JSONContentType)
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Log().Error("encoding response failed", "err", err)
	}
}

// WriteReply sends an encoded body: a /search or /add 200 in the
// request's codec, or a shard's verdict the router relays verbatim. An
// empty body is a reply that failed to encode (the caller logged why):
// the status line still goes out.
func (f *Front) WriteReply(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		f.Log().Error("writing response failed", "err", err)
	}
}

// RequestID adopts the request's ID and echoes it in X-Request-ID: the
// client's own, else the ID of an upstream router's X-Anna-Trace
// context (whose parent names the hop span this request hangs under),
// else a generated one. tagged reports a caller-chosen ID, which forces
// a trace. Allocation-free when neither header is present.
func RequestID(w http.ResponseWriter, r *http.Request) (id, parent string, tagged bool) {
	id, parent = trace.ParseWire(r.Header.Get(trace.HeaderWire))
	if own := r.Header.Get(HeaderRequestID); own != "" {
		id = own
	}
	if tagged = id != ""; !tagged {
		id = trace.NewID()
	}
	w.Header().Set(HeaderRequestID, id)
	return id, parent, tagged
}

// StartTrace returns a live trace for a tagged request or one in the
// 1-in-N sample, nil otherwise; the untraced path is one atomic add.
func (f *Front) StartTrace(id, parent string, tagged bool, start time.Time) *trace.Trace {
	if !tagged && !f.Recorder().ShouldSample() {
		return nil
	}
	tr := trace.New(id)
	tr.Start, tr.Parent = start, parent
	return tr
}

// Record closes tr with the status w was answered with (through
// Instrument; 200 otherwise, or when nothing was written) and publishes
// it.
func (f *Front) Record(tr *trace.Trace, w http.ResponseWriter) {
	code := http.StatusOK
	if sw, ok := w.(*statusWriter); ok {
		code = sw.code
	}
	tr.Finish(code)
	f.Recorder().Record(tr)
}
