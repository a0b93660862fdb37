package httpx

import (
	"cmp"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"time"

	"anna/internal/slo"
	"anna/internal/trace"
	"anna/internal/tsdb"
)

// Serving-path observability (docs/ARCHITECTURE.md §4k): the embedded
// tsdb snapshots the serving counters on a fixed interval, and the SLO
// burn-rate engine evaluates multi-window burn over those snapshots on
// every scrape. Both are built by StartObs and stopped by Close.

// Extra is what one door adds to the shared tsdb + SLO wiring: its own
// series, weighted bad parts the availability SLO counts beside
// errors_5xx, and objectives built over the finished tsdb.
type Extra struct {
	Series      []tsdb.Series
	Unavailable []slo.Part
	SLOs        func(db *tsdb.DB) []slo.SLO
}

// StartObs builds and starts the tsdb and SLO engine once. A negative
// ScrapeEvery disables both.
func (f *Front) StartObs(extra Extra) {
	f.obsOnce.Do(func() {
		if f.ScrapeEvery < 0 {
			return
		}
		interval := cmp.Or(f.ScrapeEvery, 10*time.Second)
		opt := f.SLOOptions
		opt.Logger = cmp.Or(opt.Logger, f.Log())
		// Retain at least the slow-long burn window, in [256, 4096] scrapes.
		slowLong := opt.SlowLong
		if slowLong <= 0 {
			slowLong = 6 * time.Hour
		}
		capacity := min(max(int(slowLong/interval)+8, 256), 4096)

		hist := f.duration["search"]
		series := append([]tsdb.Series{
			{Name: "requests", Kind: tsdb.CounterKind, Sample: func() float64 { return float64(f.resps.Load()) }},
			{Name: "errors_5xx", Kind: tsdb.CounterKind, Sample: func() float64 { return float64(f.resps5xx.Load()) }},
			{Name: "latency_p99_ms", Kind: tsdb.GaugeKind, Sample: func() float64 { return hist.Quantile(0.99) * 1000 }},
			{Name: "goroutines", Kind: tsdb.GaugeKind, Sample: func() float64 { return float64(runtime.NumGoroutine()) }},
		}, extra.Series...)
		if f.SLOLatencyP99 > 0 {
			// The latency SLO is windowed, not cumulative: "slow" and
			// "total" are counters derived from the latency histogram's
			// bucket counts, so the burn rate reads the share of requests
			// over the bound within each window — and recovers once the
			// slowness stops (a cumulative p99 never forgets). The bound
			// snaps to the nearest histogram bucket edge, the tightest
			// threshold the buckets can answer exactly.
			bound := hist.NearestBound(f.SLOLatencyP99.Seconds())
			series = append(series,
				tsdb.Series{Name: "latency_slow", Kind: tsdb.CounterKind,
					Sample: func() float64 { return float64(hist.Count() - hist.CountLE(bound)) }},
				tsdb.Series{Name: "latency_total", Kind: tsdb.CounterKind,
					Sample: func() float64 { return float64(hist.Count()) }})
		}
		db := tsdb.New(capacity, series...)
		var slos []slo.SLO
		if f.SLOLatencyP99 > 0 {
			slos = append(slos, slo.SLO{Name: "latency_p99", Objective: 0.99,
				BadRatio: slo.BadShare(db, "latency_total", slo.Part{Series: "latency_slow", Weight: 1})})
		}
		if f.SLOAvailability > 0 {
			bad := append([]slo.Part{{Series: "errors_5xx", Weight: 1}}, extra.Unavailable...)
			slos = append(slos, slo.SLO{Name: "availability", Objective: f.SLOAvailability,
				BadRatio: slo.BadShare(db, "requests", bad...)})
		}
		if extra.SLOs != nil {
			slos = append(slos, extra.SLOs(db)...)
		}
		f.eng = slo.New(opt, slos...)
		f.eng.Register(f.reg)
		db.OnScrape(f.eng.EvaluateAt)
		db.Start(interval)
		f.db = db
	})
}

// Close stops the tsdb scraper, if StartObs started one.
func (f *Front) Close() {
	if f.db != nil {
		f.db.Close()
	}
}

// Debug shapes the two trace endpoints Mount serves; nil fields serve
// the buffered traces as they are.
type Debug struct {
	Entry func(t *trace.Trace) any                  // one /debug/queries listing entry
	Trace func(r *http.Request, t *trace.Trace) any // the /debug/trace/{id} body
}

// Mount registers what every door serves beside its own handlers:
// /healthz, /metrics, /debug/queries (slowest first, ?n= bounds it),
// /debug/trace/{id}, the tsdb trio (/debug/tsdb, /alerts, /debug/dash
// titled title) when StartObs built it, and /debug/pprof/ when pprofOn.
func (f *Front) Mount(mux *http.ServeMux, title string, pprofOn bool, dbg Debug) {
	if dbg.Entry == nil {
		dbg.Entry = func(t *trace.Trace) any { return t }
	}
	if dbg.Trace == nil {
		dbg.Trace = func(_ *http.Request, t *trace.Trace) any { return t }
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", f.reg.Handler())
	mux.HandleFunc("/debug/queries", f.getOnly(func(w http.ResponseWriter, r *http.Request) {
		traces := f.Recorder().Snapshot()
		sort.SliceStable(traces, func(i, j int) bool { return traces[i].Total > traces[j].Total })
		if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(traces) {
			traces = traces[:n]
		}
		entries := make([]any, len(traces))
		for i, t := range traces {
			entries[i] = dbg.Entry(t)
		}
		total, slow := f.Recorder().Recorded()
		f.JSON(w, http.StatusOK, map[string]any{
			"recorded_total": total, "slow_total": slow, "count": len(entries), "traces": entries,
		})
	}))
	mux.HandleFunc("/debug/trace/{id}", f.getOnly(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if t := f.Recorder().Get(id); t != nil {
			f.JSON(w, http.StatusOK, dbg.Trace(r, t))
			return
		}
		f.HTTPError(w, http.StatusNotFound, "no buffered trace with id %q (evicted or never traced)", id)
	}))
	if f.db != nil {
		mux.Handle("/debug/tsdb", f.db.Handler())
		mux.Handle("/alerts", f.eng.Handler())
		mux.Handle("/debug/dash", slo.DashHandler(title))
	}
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// getOnly answers anything but a GET with 405.
func (f *Front) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			f.HTTPError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		h(w, r)
	}
}
