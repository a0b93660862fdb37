// Command benchjson runs a benchmark suite and records it as JSON. It
// backs `make bench`, which regenerates the documents at the repo root:
//
//	go run ./cmd/benchjson -suite engine -out BENCH_engine.json
//	go run ./cmd/benchjson -suite build  -out BENCH_build.json
//	go run ./cmd/benchjson -suite serve  -out BENCH_serve.json
//
// The "engine" suite covers the serving path (fused scan kernel, worker
// pool); the "build" suite covers the train/encode/ingest pipeline
// (blocked batch encoder, parallel deterministic k-means). The fresh run
// is each entry's "after"; no number recorded on another tree or machine
// is carried beside it — a comparison between commits is an interleaved
// `make bench-ab` run. Benchmarks that report a scalar-ns/op metric are
// same-process A/Bs: they time the scalar and the assembly dispatch of
// this tree in alternating rounds, and that scalar side is their
// "before".
//
// The "serve" suite is different in kind: it delegates to the annaload
// load generator, which self-hosts a synthetic index and measures whole
// latency-vs-QPS curves for the baseline (per-request) and full
// (batched + cached) serving stacks in the same process, writing the
// curves and the saturation speedup to the output. -benchtime maps to
// annaload's per-level -duration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anna/internal/simd"
)

// Metrics is one benchmark's figures. QPS is derived from ns/op and the
// op's query count when the benchmark doesn't report a qps metric itself.
type Metrics struct {
	NsPerOp     float64  `json:"ns_op"`
	BytesPerOp  *float64 `json:"b_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_op,omitempty"`
	QPS         *float64 `json:"qps,omitempty"`
	NsPerQuery  *float64 `json:"ns_query,omitempty"`
	// scalarNsPerOp is the scalar-dispatch side of an interleaved A/B
	// benchmark; it becomes the entry's Before.
	scalarNsPerOp *float64
}

// Entry is one benchmark's fresh measurement, paired with its scalar
// side when the benchmark is a same-process A/B.
type Entry struct {
	Package string   `json:"package"`
	Before  *Metrics `json:"before,omitempty"` // the A/B's scalar side; nil otherwise
	After   *Metrics `json:"after"`
	Speedup *float64 `json:"speedup,omitempty"` // before.ns_op / after.ns_op
	// AB marks Before as measured in this run: the scalar dispatch of
	// the same tree, interleaved with After in one process.
	AB string `json:"ab,omitempty"`
}

// SIMDInfo records the kernel dispatch active for the run, read from
// internal/simd in this process. The `go test` child inherits the same
// environment (including ANNA_NOSIMD) and runs on the same CPU, so its
// dispatch matches; recording it keeps scalar and SIMD measurements from
// being compared without noticing.
type SIMDInfo struct {
	Dispatch string `json:"dispatch"`           // "avx2" or "scalar"
	Features string `json:"features,omitempty"` // detected CPU features
	Reason   string `json:"reason,omitempty"`   // why dispatch is scalar, when it is
	GoArch   string `json:"goarch"`
}

// Output is the BENCH_*.json document.
type Output struct {
	Generated   string            `json:"generated"`
	Command     string            `json:"command"`
	CPU         string            `json:"cpu,omitempty"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	SIMD        *SIMDInfo         `json:"simd,omitempty"`
	Description string            `json:"description"`
	Benchmarks  map[string]*Entry `json:"benchmarks"`
	// AdaptiveSweep (engine suite only) records the recall-vs-QPS
	// comparison of fixed-W against adaptive per-query effort; see
	// sweep.go and docs/ARCHITECTURE.md §4j.
	AdaptiveSweep *AdaptiveSweep `json:"adaptive_sweep,omitempty"`
}

// queriesPerOp maps benchmarks whose op spans a whole query batch to the
// batch size, so a QPS can be derived from ns/op.
var queriesPerOp = map[string]float64{
	"BenchmarkQueryMajor":   12,
	"BenchmarkClusterMajor": 12,
	"BenchmarkSearchW8":     1,
}

func f(v float64) *float64 { return &v }

// A suite is a benchmark selection.
type suite struct {
	out         string // default output path
	bench       string // default benchmark regex
	pkgs        []string
	description string
}

var suites = map[string]suite{
	"engine": {
		out:   "BENCH_engine.json",
		bench: "Search|ADC|Major|BuildLUT",
		pkgs:  []string{"./internal/ivf/", "./internal/pq/", "./internal/engine/", "./internal/simd/"},
		description: "CPU-engine scan benchmarks of this tree (fused packed-code scan through the AVX2 " +
			"assembly kernels when the CPU supports them). Entries with an 'ab' field (BuildLUT_L2, " +
			"ScanListADC_*) carry a 'before': the scalar dispatch of this same tree, timed in rounds " +
			"alternating with 'after' inside one process. No entry carries a number recorded on another " +
			"tree or machine; compare commits with `make bench-ab`.",
	},
	"build": {
		out:   "BENCH_build.json",
		bench: "Build|BenchmarkAdd$|Encode",
		pkgs:  []string{"./internal/ivf/", "./internal/pq/"},
		description: "Build/ingest pipeline benchmarks of this tree (blocked norms-identity batch encoder, " +
			"chunk-deterministic parallel k-means and list build). No entry carries a number recorded on " +
			"another tree or machine; compare commits with `make bench-ab`.",
	},
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	suiteName := flag.String("suite", "engine", `benchmark suite: "engine" (serving path), "build" (train/encode/ingest), or "serve" (HTTP load curves via annaload)`)
	out := flag.String("out", "", "output JSON path (default: the suite's BENCH_*.json)")
	bench := flag.String("bench", "", "benchmark regex (default: the suite's selection)")
	benchtime := flag.String("benchtime", "", "passed to -benchtime when non-empty")
	sweepN := flag.Int("sweep-n", 20000, "adaptive sweep corpus size for the engine suite (0 disables the sweep)")
	sweepQ := flag.Int("sweep-q", 200, "adaptive sweep query count for the engine suite")
	flag.Parse()

	if *suiteName == "serve" {
		runServe(*out, *benchtime)
		return
	}

	s, ok := suites[*suiteName]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q\n", *suiteName)
		os.Exit(1)
	}
	if *out == "" {
		*out = s.out
	}
	if *bench == "" {
		*bench = s.bench
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, s.pkgs...)

	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n%s", err, raw)
		os.Exit(1)
	}

	doc := &Output{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Command:    "go " + strings.Join(args, " "),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD: &SIMDInfo{
			Dispatch: simd.Dispatch(),
			Features: simd.Features(),
			Reason:   simd.Reason(),
			GoArch:   runtime.GOARCH,
		},
		Description: s.description,
		Benchmarks:  map[string]*Entry{},
	}

	pkg := ""
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if strings.HasPrefix(line, "cpu:") && doc.CPU == "" {
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, metrics := m[1], parseMetrics(m[2])
		if metrics == nil {
			continue
		}
		key := pkg + "." + name
		if metrics.QPS == nil {
			if nq, ok := queriesPerOp[name]; ok && metrics.NsPerOp > 0 {
				metrics.QPS = f(nq * 1e9 / metrics.NsPerOp)
			}
		}
		e := &Entry{Package: pkg, After: metrics}
		if metrics.scalarNsPerOp != nil {
			e.Before = &Metrics{NsPerOp: *metrics.scalarNsPerOp}
			e.Speedup = f(*metrics.scalarNsPerOp / metrics.NsPerOp)
			e.AB = "scalar vs asm dispatch, same process, alternating rounds, medians"
		}
		doc.Benchmarks[key] = e
	}

	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks parsed")
		os.Exit(1)
	}
	if *suiteName == "engine" && *sweepN > 0 {
		doc.AdaptiveSweep = runSweep(*sweepN, *sweepQ)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))
}

// runServe delegates the serve suite to the annaload load generator,
// which measures latency-vs-QPS curves and writes the JSON itself.
func runServe(out, benchtime string) {
	if out == "" {
		out = "BENCH_serve.json"
	}
	args := []string{"run", "./cmd/annaload", "-out", out, "-router", "3", "-adaptive"}
	if benchtime != "" {
		args = append(args, "-duration", benchtime)
	}
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: annaload failed: %v\n", err)
		os.Exit(1)
	}
}

// parseMetrics decodes the "value unit value unit ..." tail of a
// benchmark line.
func parseMetrics(tail string) *Metrics {
	fields := strings.Fields(tail)
	if len(fields)%2 != 0 || len(fields) == 0 {
		return nil
	}
	out := &Metrics{}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil
		}
		switch fields[i+1] {
		case "ns/op":
			out.NsPerOp = v
		case "B/op":
			out.BytesPerOp = f(v)
		case "allocs/op":
			out.AllocsPerOp = f(v)
		case "qps":
			out.QPS = f(v)
		case "ns/query":
			out.NsPerQuery = f(v)
		case "scalar-ns/op":
			out.scalarNsPerOp = f(v)
		}
	}
	return out
}
