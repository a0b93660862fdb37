// Command bench is the repository's one benchmark (see README.md and
// ../BENCHMARK.json). One invocation builds one seeded corpus, drives one
// workload through the repo's public entry points in a closed loop, checks
// every output, and prints the metrics: end-to-end ones with -trace 0,
// per-layer ones (from a separate traced pass) with -trace 1.
//
//	bash bench/run.sh --workload serve_unique --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh compare -base runs/a -new runs/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"anna/internal/simd"
)

// metricDef names one emitted metric. The two catalogs below are the
// frozen names later issues quote; bench_test.go pins them to
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"recall_at_10", "ratio"},
}

var perLayer = []metricDef{
	// engine / ivf / pq / topk / adaptive: worker (CPU) time per query.
	{"engine.run_ms_per_query", "ms"},
	{"engine.overhead_ms_per_query", "ms"},
	{"anna.search_batch_self_ms_per_query", "ms"},
	{"ivf.select_ms_per_query", "ms"},
	{"ivf.scan_ms_per_query", "ms"},
	{"ivf.lut_ms_per_query", "ms"},
	{"pq.scan_ns_per_vector", "ns"},
	{"topk.merge_ms_per_query", "ms"},
	{"adaptive.rerank_ms_per_query", "ms"},
	{"adaptive.escalations_per_query", "count"},
	{"ivf.scanned_vectors_per_query", "count"},
	{"ivf.clusters_per_query", "count"},
	{"ivf.list_bytes_per_query", "B"},
	{"engine.pqonly_cm_qps", "1/s"},
	{"engine.pqonly_qaat_qps", "1/s"},
	{"engine.pqonly_cm_list_bytes_per_query", "B"},
	{"engine.pqonly_qaat_list_bytes_per_query", "B"},
	// qos
	{"qos.cache_hit_ratio", "ratio"},
	{"qos.cache_evictions_per_s", "1/s"},
	{"qos.cache_invalidations", "count"},
	{"qos.cache_get_us", "us"},
	{"qos.coalesce_wait_ms", "ms"},
	{"qos.batch_size_mean", "count"},
	{"qos.batched_share", "ratio"},
	{"qos.submit_self_ms", "ms"},
	// serve (package anna's HTTP layer) and net
	{"serve.handler_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.hit_handler_ms", "ms"},
	{"net.http_self_ms", "ms"},
	{"serve.request_bytes", "B"},
	{"serve.response_bytes", "B"},
	{"serve.allocs_per_request", "count"},
	// cluster
	{"cluster.hop_self_ms", "ms"},
	{"cluster.shard_ms_max", "ms"},
	{"cluster.shard_ms_mean", "ms"},
	{"cluster.add_hop_self_ms", "ms"},
	{"cluster.allocs_per_request", "count"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.partials", "count"},
	// durable / wal / ingest
	{"durable.log_add_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_vector", "B"},
	{"ivf.add_ms_per_vector", "ms"},
	{"serve.add_handler_self_ms", "ms"},
	// write path and footprint as the user sees them (router3_mixed has
	// the only writes, so these cannot be end-to-end metrics of every
	// workload)
	{"add_vps", "1/s"},
	{"add_p50_ms", "ms"},
	{"add_p99_ms", "ms"},
	{"add_found_ratio", "ratio"},
	{"index_bytes_per_vector", "B"},
	// trace
	{"trace.front_door_ms", "ms"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

var workloadNames = []string{"engine_batch", "serve_unique", "serve_zipf", "router3_mixed"}

// sizes are the corpus and op-count parameters; -quick shrinks them so the
// whole harness runs in seconds under go test.
type sizes struct {
	n, pool        int // base vectors, query pool
	recallQ        int // queries with exact ground truth
	warmQ          int // pool slice reserved for warm-up, disjoint from the walk
	nClusters      int // single-index workloads
	shardClusters  int // per shard on router3_mixed
	batch          int // queries per engine_batch call
	cacheFillDraws int // zipf draws replayed to bring the cache to steady state
	traceOps       int // ops in the traced window
	addFound       int // acknowledged vectors searched for after router3_mixed
	setups         int // set-ups per run; setup_s is their median
}

var (
	fullSizes = sizes{n: 100000, pool: 65536, recallQ: 1000, warmQ: 512, nClusters: 256, shardClusters: 96,
		batch: 512, cacheFillDraws: 20000, traceOps: 400, addFound: 200, setups: 3}
	quickSizes = sizes{n: 6000, pool: 4096, recallQ: 100, warmQ: 64, nClusters: 32, shardClusters: 12,
		batch: 64, cacheFillDraws: 600, traceOps: 40, addFound: 20, setups: 1}
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string // full result file (with the environment stamp) for compare
	traceOut string // spans of the traced pass as JSON lines
	tmp      string // WAL and snapshot directories live under here
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what -out writes and compare reads: the result plus what
// it was measured on. Comparisons are valid only at equal stamps.
type resultFile struct {
	Stamp    stamp   `json:"stamp"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
}

type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"`
}

func clients() int { return min(runtime.NumCPU(), 4) }

func envStamp() stamp {
	st := stamp{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients(), Go: runtime.Version(), SIMD: simd.Dispatch(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; a developer's is.
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		st.Commit = head
	}
	return st
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "drives the dataset and every op sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: add the traced pass and print per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny corpus and op counts (plumbing check, numbers mean nothing)")
	flag.StringVar(&cfg.out, "out", "", "also write the result, with the environment stamp, to this file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON lines")
	flag.StringVar(&cfg.tmp, "tmp", "", "scratch directory for WALs and snapshots (default: next to the binary)")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.tmp == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		cfg.tmp = filepath.Join(filepath.Dir(exe), "tmp")
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if cfg.out != "" {
		rf := resultFile{Stamp: envStamp(), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, result: *res}
		b, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(cfg.out, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes one workload and returns its result. Progress and the
// named metrics go to log; a failed correctness check is reported there
// by name and makes the result incorrect rather than aborting the run.
func run(cfg config, log io.Writer) (*result, error) {
	sz := fullSizes
	if cfg.quick {
		sz = quickSizes
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	tmp, err := makeTmp(cfg.tmp)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: cfg, sz: sz, clients: clients(), tmp: tmp, hc: newHTTPClient()}
	defer e.hc.CloseIdleConnections()
	var w workload
	switch cfg.workload {
	case "engine_batch":
		w = &engineWL{env: e}
	case "serve_unique":
		w = &serveWL{env: e}
	case "serve_zipf":
		w = &serveWL{env: e, zipf: true}
	case "router3_mixed":
		w = &routerWL{env: e}
	default:
		return nil, fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	fmt.Fprintf(log, "stamp %+v seed=%d\n", envStamp(), cfg.seed)

	// Set-up, several times: setup_s is the median, so one slow k-means
	// or fsync does not decide it. The per-layer run needs no setup_s.
	setups := sz.setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.teardown()

	// Recall through the front door against exact ground truth, before
	// the timed phase so router3_mixed's added near-duplicates cannot
	// enter the truth set.
	rec, recFailed, recErr := e.recall(w)
	if recErr != nil {
		e.fail("recall pass: %d of %d queries failed, first: %v", recFailed, sz.recallQ, recErr)
	}
	if rec < 0.90 {
		e.fail("recall_at_10 %.4f < 0.90", rec)
	}

	samples, firstErr := w.timed(time.Duration(cfg.seconds * float64(time.Second)))
	ph := summarize(samples, cfg.seconds)
	if firstErr != nil {
		e.fail("timed phase: %d of %d ops failed, first: %v", ph.failed, ph.attempted, firstErr)
	}
	res := &result{Attempted: ph.attempted + sz.recallQ, Failed: ph.failed + recFailed, Metrics: map[string]metricValue{}}

	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":       median(setupS),
			"search_qps":    ph.searchQPS,
			"search_p50_ms": ph.searchP50,
			"search_p99_ms": ph.searchP99,
			"recall_at_10":  rec,
		}
		emit(res, log, endToEnd, vals)
	} else {
		vals := map[string]float64{}
		tr := &tracer{t0: time.Now()}
		if err := w.layers(vals, ph, tr); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if u := vals["trace.unattributed_share"]; math.Abs(u) > 0.10 {
			fmt.Fprintf(log, "WARNING sum check: layer self times miss the front-door median %.4f ms by %.1f%%\n",
				vals["trace.front_door_ms"], 100*u)
		}
		emit(res, log, perLayer, vals)
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(log, "attempted %d failed %d (timed phase: %d searches, %d adds)\n",
		res.Attempted, res.Failed, ph.searches, ph.adds)
	fmt.Fprintf(log, "per window: search_qps %.0f\n            search_p99_ms %.3f (all samples: %.3f)\n",
		ph.windowQPS, ph.windowP99, ph.overallP99)
	res.Correct = len(e.bad) == 0
	for _, b := range e.bad {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", b)
	}
	return res, nil
}

// emit copies the catalogued metrics from vals into the result and prints
// each by name with its unit. A missing value is 0: the layer is not on
// this workload's path.
func emit(res *result, log io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "%-44s %14.6g %s\n", d.name, v, d.unit)
	}
}

func makeTmp(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
