// Command annaquery loads an index built by annatrain and answers
// queries, either on the software engine or through the simulated ANNA
// accelerator.
//
// Usage:
//
//	annaquery -index sift.anna -queries sift_query.fvecs -w 32 -k 10
//	annaquery -index sift.anna -random 8 -backend anna -w 32 -k 10
//	annaquery -index sift.anna -random 8 -adaptive -stop-patience 4
//
// With -adaptive the software engine applies per-query effort policies
// (early scan termination, and SQ8 precision escalation on
// rerank-enabled indexes); each query then reports how many clusters it
// actually scanned and how many candidates it escalated, alongside the
// batch totals.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"anna"
	"anna/internal/dataset"
	"anna/internal/trace"
)

func main() {
	var (
		indexPath = flag.String("index", "index.anna", "index file from annatrain")
		queries   = flag.String("queries", "", "fvecs file with query vectors")
		maxRows   = flag.Int("maxrows", 0, "cap on queries read (0 = all)")
		random    = flag.Int("random", 0, "instead of -queries, sample this many random indexed-space queries")
		w         = flag.Int("w", 32, "clusters inspected W")
		k         = flag.Int("k", 10, "results per query")
		backend   = flag.String("backend", "software", "software | anna (simulated accelerator)")
		rerank    = flag.Int("rerank", 0, "re-rank factor (>0 refines top-k*factor candidates; index must be trained with -rerank)")
		show      = flag.Int("show", 5, "results printed per query")
		seed      = flag.Int64("seed", 7, "seed for -random")
		traceOn   = flag.Bool("trace", false, "print per-stage span timings for the batch (select/scan/merge; rerank and simulate where applicable)")
		adaptive  = flag.Bool("adaptive", false, "per-query adaptive effort on the software engine: early termination, plus SQ8 escalation on rerank-enabled indexes")
		stopPat   = flag.Int("stop-patience", 4, "stop a query's cluster scan after this many consecutive non-improving clusters (with -adaptive)")
		escMargin = flag.Float64("margin", 0.2, "escalation band width as a fraction of the candidate score spread (with -adaptive, rerank-enabled indexes)")
	)
	flag.Parse()

	idx, err := anna.LoadIndexFile(*indexPath)
	if err != nil {
		fatalf("loading index: %v", err)
	}
	fmt.Printf("index: %d vectors, dim %d, %d clusters, metric %v\n",
		idx.Len(), idx.Dim(), idx.NClusters(), idx.Metric())

	var qs [][]float32
	switch {
	case *queries != "":
		mtx, err := dataset.LoadFvecsFile(*queries, *maxRows)
		if err != nil {
			fatalf("reading queries: %v", err)
		}
		if mtx.Cols != idx.Dim() {
			fatalf("query dim %d, index dim %d", mtx.Cols, idx.Dim())
		}
		qs = make([][]float32, mtx.Rows)
		for i := range qs {
			qs[i] = mtx.Row(i)
		}
	case *random > 0:
		rng := rand.New(rand.NewSource(*seed))
		qs = make([][]float32, *random)
		for i := range qs {
			v := make([]float32, idx.Dim())
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			qs[i] = v
		}
	default:
		fatalf("provide -queries or -random")
	}

	// With -trace, each engine run's BatchReport attaches its
	// select/scan/merge stage spans to the trace (as annaserve does),
	// and the rerank / simulate arms add their own spans.
	var tr *trace.Trace
	if *traceOn {
		tr = trace.New(trace.NewID())
		tr.Queries, tr.W, tr.K, tr.Backend = len(qs), *w, *k, *backend
	}

	var results [][]anna.Result
	// Per-query adaptive effort figures (clusters scanned, candidates
	// escalated), filled by the -adaptive arm.
	type effortStat struct{ clusters, escalated int64 }
	var effort []effortStat
	switch {
	case *adaptive && *backend == "software" && *rerank == 0:
		// Queries run one at a time so the report's clusters/escalation
		// counters are attributable per query, not just batch totals.
		ao := anna.AdaptiveOptions{
			StopPatience:   *stopPat,
			MinClusters:    2,
			EscalateFactor: 4, // inert on indexes without rerank storage
			Margin:         float32(*escMargin),
		}
		results = make([][]anna.Result, len(qs))
		effort = make([]effortStat, len(qs))
		var scanned, clusters, escalated int64
		start := time.Now()
		for i, q := range qs {
			rep, err := idx.SearchBatchContext(context.Background(), [][]float32{q}, anna.SearchOptions{
				W: *w, K: *k, Adaptive: ao,
			})
			if err != nil {
				fatalf("adaptive search: %v", err)
			}
			addStages(tr, rep)
			results[i] = rep.Results[0]
			effort[i] = effortStat{clusters: rep.ClustersScanned, escalated: rep.Escalations}
			scanned += rep.ScannedVectors
			clusters += rep.ClustersScanned
			escalated += rep.Escalations
		}
		elapsed := time.Since(start)
		fixed := int64(len(qs) * *w)
		fmt.Printf("adaptive software engine: %.0f QPS, %d vectors scanned, %d/%d clusters scanned (%.0f%% of fixed W=%d), %d candidates escalated\n",
			float64(len(qs))/elapsed.Seconds(), scanned, clusters, fixed,
			100*float64(clusters)/float64(fixed), *w, escalated)
	case *rerank > 0:
		base := time.Now()
		results = make([][]anna.Result, len(qs))
		for i, q := range qs {
			rs, err := idx.SearchRerank(q, *w, *k, *rerank)
			if err != nil {
				fatalf("reranked search: %v", err)
			}
			results[i] = rs
		}
		if tr != nil {
			tr.AddSpan("rerank", time.Since(base))
		}
		fmt.Printf("software engine with %dx re-ranking\n", *rerank)
	case *backend == "software":
		rep, err := idx.SearchBatchContext(context.Background(), qs, anna.SearchOptions{
			W: *w, K: *k, Mode: anna.ClusterMajor,
		})
		if err != nil {
			fatalf("searching: %v", err)
		}
		addStages(tr, rep)
		results = rep.Results
		fmt.Printf("software engine: %.0f QPS measured, %d vectors scanned\n",
			rep.QPS, rep.ScannedVectors)
	case *backend == "anna":
		cfg := anna.DefaultAcceleratorConfig()
		if *k > cfg.TopK {
			cfg.TopK = *k
		}
		acc, err := anna.NewAccelerator(idx, cfg)
		if err != nil {
			fatalf("configuring accelerator: %v", err)
		}
		simStart := time.Now()
		rep, err := acc.Simulate(qs, anna.SimParams{W: *w, K: *k})
		if err != nil {
			fatalf("simulating: %v", err)
		}
		if tr != nil {
			tr.AddSpan("simulate", time.Since(simStart))
		}
		results = rep.Results
		fmt.Printf("simulated ANNA: %d cycles, %.0f QPS, %.3f ms latency, %d B traffic\n",
			rep.Cycles, rep.QPS, rep.MeanLatencySeconds*1e3, rep.TrafficBytes)
	default:
		fatalf("unknown backend %q", *backend)
	}

	if tr != nil {
		tr.Finish(0)
		fmt.Printf("trace %s: %d queries in %v\n", tr.ID, tr.Queries, tr.Total.Round(time.Microsecond))
		for _, sp := range tr.Spans {
			fmt.Printf("  %-10s %v\n", sp.Name, sp.Duration.Round(time.Microsecond))
		}
		if tr.Scanned > 0 {
			fmt.Printf("  %-10s %d vectors\n", "scanned", tr.Scanned)
		}
		if tr.ClustersScanned > 0 {
			fmt.Printf("  %-10s %d\n", "clusters", tr.ClustersScanned)
		}
		if tr.Escalated > 0 {
			fmt.Printf("  %-10s %d candidates\n", "escalated", tr.Escalated)
		}
	}

	for qi, rs := range results {
		if effort != nil {
			fmt.Printf("query %d [clusters=%d escalated=%d]:", qi, effort[qi].clusters, effort[qi].escalated)
		} else {
			fmt.Printf("query %d:", qi)
		}
		for i, r := range rs {
			if i >= *show {
				break
			}
			fmt.Printf("  (%d, %.4f)", r.ID, r.Score)
		}
		fmt.Println()
	}
}

// addStages attaches one engine run's stage spans and work counts to
// tr, when tracing.
func addStages(tr *trace.Trace, rep *anna.BatchReport) {
	if tr != nil {
		tr.AddStages(trace.Stages{
			Select: rep.SelectTime, Scan: rep.ScanTime, Rerank: rep.RerankTime, Merge: rep.MergeTime,
			Scanned: rep.ScannedVectors, Clusters: rep.ClustersScanned, Escalated: rep.Escalations,
		})
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "annaquery: "+format+"\n", args...)
	os.Exit(1)
}
