package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns Q1, median, Q3 with the method of Python's
// statistics.quantiles(v, n=4) (exclusive), which is what the acceptance
// driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareMain prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how much worse the new set's median is than the
// base's against the metric's bound, and a verdict. A metric whose
// quartile spread in either set is wider than its bound cannot resolve a
// change of that size: it is reported unresolved, not ok.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "directory of result files (-out) from the base commit")
	newDir := fs.String("new", "", "directory of result files from the change")
	spec := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseDir == "" || *newDir == "" {
		return fmt.Errorf("-base and -new are required")
	}
	bf, err := readBenchmarkFile(*spec)
	if err != nil {
		return err
	}
	base, baseStamp, err := loadResults(*baseDir)
	if err != nil {
		return err
	}
	cur, curStamp, err := loadResults(*newDir)
	if err != nil {
		return err
	}
	if baseStamp != curStamp {
		fmt.Fprintf(out, "WARNING environment stamps differ; the comparison is not valid\n base %+v\n new  %+v\n", baseStamp, curStamp)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] (n)\tnew median [q1, q3] (n)\tworse by\tbound\tverdict")
	regressed := 0
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := base[wl.Name][m.Name], cur[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%+.2f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, a2, a1, a3, len(a), b2, b1, b3, len(b), 100*worse, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

// loadResults reads every -out file in dir into workload -> metric ->
// values, skipping traced runs, and returns the stamp they share.
func loadResults(dir string) (map[string]map[string][]float64, stamp, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, stamp{}, err
	}
	out := map[string]map[string][]float64{}
	var st stamp
	n := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, stamp{}, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, stamp{}, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace {
			continue
		}
		if !rf.Correct || rf.Failed > 0 {
			return nil, stamp{}, fmt.Errorf("%s: incorrect run (%d of %d ops failed)", p, rf.Failed, rf.Attempted)
		}
		if n > 0 && rf.Stamp != st {
			return nil, stamp{}, fmt.Errorf("%s: environment stamp differs from the other files in %s", p, dir)
		}
		st = rf.Stamp
		n++
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string][]float64{}
		}
		for name, v := range rf.Metrics {
			out[rf.Workload][name] = append(out[rf.Workload][name], v.Value)
		}
	}
	if n == 0 {
		return nil, stamp{}, fmt.Errorf("no end-to-end result files in %s", dir)
	}
	return out, st, nil
}
