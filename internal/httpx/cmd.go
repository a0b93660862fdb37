package httpx

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Flags are the command-line flags annaserve and annarouter share.
// Parse fills Options.Logger from -log.
type Flags struct {
	Addr  string
	Grace time.Duration
	Limits
	Options
	logFormat string
}

// NewFlags defines the shared flags on flag.CommandLine; addr is the
// default listen address.
func NewFlags(addr string) *Flags {
	f := &Flags{}
	flag.StringVar(&f.Addr, "addr", addr, "listen address")
	flag.IntVar(&f.DefaultW, "w", 32, "default clusters inspected per query")
	flag.IntVar(&f.DefaultK, "k", 10, "default results per query")
	flag.IntVar(&f.MaxBatch, "maxbatch", 1024, "maximum queries per request")
	flag.DurationVar(&f.Grace, "grace", 10*time.Second, "graceful-shutdown drain window")
	flag.StringVar(&f.logFormat, "log", "text", `structured log format: "text" or "json"`)
	flag.DurationVar(&f.SlowQuery, "slow", 250*time.Millisecond, "log and always record /search requests slower than this (negative = never)")
	flag.IntVar(&f.TraceSampleEvery, "trace-sample", 64, "trace 1-in-N untagged queries into /debug/queries (negative = only X-Request-ID-tagged queries)")
	flag.IntVar(&f.TraceRingSize, "trace-ring", 256, "recent traces buffered for /debug/queries and /debug/trace/{id}")
	flag.DurationVar(&f.ScrapeEvery, "scrape-every", 10*time.Second, "embedded tsdb scrape interval for /debug/tsdb and the SLO engine (negative = disabled)")
	flag.DurationVar(&f.SLOLatencyP99, "slo-latency-p99", 0, "latency SLO: p99 /search bound evaluated by burn-rate alerts on /alerts (0 = off)")
	flag.Float64Var(&f.SLOAvailability, "slo-availability", 0, "availability SLO objective in (0,1), e.g. 0.999; partial-coverage-aware on the router (0 = off)")
	return f
}

// Parse parses the command line and builds the logger; a bad -log exits
// with status 1.
func (f *Flags) Parse(prog string) {
	flag.Parse()
	var err error
	if f.Logger, err = newLogger(f.logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(1)
	}
}

// Fatal logs msg with args through the -log logger and exits with status 1.
func (f *Flags) Fatal(msg string, args ...any) {
	f.Logger.Error(msg, args...)
	os.Exit(1)
}

// newLogger builds the process-wide structured logger from -log.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log must be text or json (got %q)", format)
	}
}

// Listen starts serving h on addr and catching SIGINT/SIGTERM — from
// now, so a signal that arrives while the caller is still starting up
// (a store recovering behind a ReadinessGate) is held — and returns
// wait. wait blocks until the server fails, returning its error, or a
// signal arrives: then it drains in-flight requests for up to grace,
// closes what is left and returns nil, for the caller to tear its door
// down.
func Listen(addr string, h http.Handler) (wait func(logger *slog.Logger, grace time.Duration) error) {
	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	return func(logger *slog.Logger, grace time.Duration) error {
		defer stop()
		select {
		case err := <-errc:
			return err
		case <-sig.Done():
		}
		stop() // restore default signal handling: a second ^C kills immediately
		logger.Info("signal received, draining", "grace", grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("drain window expired, closing", "err", err)
			hs.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server error during shutdown", "err", err)
		}
		return nil
	}
}
