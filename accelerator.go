package anna

import (
	"fmt"

	"sort"

	iacc "anna/internal/anna"
	"anna/internal/energy"
	"anna/internal/sim"
	"anna/internal/vecmath"
)

// AcceleratorConfig is the hardware configuration of one simulated ANNA
// instance. Zero values are invalid; start from DefaultAcceleratorConfig.
type AcceleratorConfig struct {
	// NCU is the CPM compute-unit count (paper: 96).
	NCU int
	// NU is the per-SCM reduction width (paper: 64).
	NU int
	// NSCM is the number of Similarity Computation Modules (paper: 16).
	NSCM int
	// TopK is the top-k unit capacity (paper: 1000).
	TopK int
	// FreqGHz is the clock (paper: 1.0).
	FreqGHz float64
	// EVBBytes is one encoded-vector-buffer copy (paper: 1 MiB).
	EVBBytes int64
	// MemBandwidthGBs is the memory system bandwidth (paper: 64 GB/s per
	// instance).
	MemBandwidthGBs float64
	// Trace records a per-module execution timeline.
	Trace bool
}

// DefaultAcceleratorConfig returns the paper's evaluated design point.
func DefaultAcceleratorConfig() AcceleratorConfig {
	return AcceleratorConfig{
		NCU: 96, NU: 64, NSCM: 16, TopK: 1000,
		FreqGHz: 1.0, EVBBytes: 1 << 20, MemBandwidthGBs: 64,
	}
}

func (c AcceleratorConfig) internal() iacc.Config {
	ic := iacc.DefaultConfig()
	ic.NCU = c.NCU
	ic.NU = c.NU
	ic.NSCM = c.NSCM
	ic.K = c.TopK
	ic.FreqGHz = c.FreqGHz
	ic.EVBBytes = c.EVBBytes
	ic.Trace = c.Trace
	if c.FreqGHz > 0 {
		ic.DRAM.BandwidthBytesPerCycle = c.MemBandwidthGBs / c.FreqGHz
	}
	return ic
}

// Accelerator is a simulated ANNA instance bound to an index.
type Accelerator struct {
	inner *iacc.Accelerator
	cfg   AcceleratorConfig
}

// NewAccelerator binds a configured accelerator to an index. The
// hardware supports k* of 16 or 256 (Section III-A).
func NewAccelerator(idx *Index, cfg AcceleratorConfig) (acc *Accelerator, err error) {
	defer func() {
		if r := recover(); r != nil {
			acc, err = nil, fmt.Errorf("anna: %v", r)
		}
	}()
	return &Accelerator{inner: iacc.New(cfg.internal(), idx.inner), cfg: cfg}, nil
}

// SimParams control one simulated search command.
type SimParams struct {
	// W is the clusters-inspected knob; K the per-query result count.
	W, K int
	// SCMsPerQuery selects intra-query parallelism in batched mode
	// (0 = the paper's heuristic).
	SCMsPerQuery int
	// TimingOnly skips the functional datapath (no Results) for large
	// sweeps.
	TimingOnly bool
}

// TimelineSpan is one scheduled occupancy of a hardware unit.
type TimelineSpan struct {
	Unit       string
	Work       string
	Start, End int64
}

// SimReport is the outcome of a simulated search.
type SimReport struct {
	// Results holds each query's neighbors (nil when TimingOnly).
	Results [][]Result
	// Cycles is the simulated makespan; Seconds the wall-clock
	// equivalent at the configured frequency.
	Cycles  int64
	Seconds float64
	// QPS is batch throughput; MeanLatencySeconds the per-query latency.
	QPS                float64
	MeanLatencySeconds float64
	// QueryLatencies holds each query's latency in seconds (baseline
	// mode only). Use LatencyPercentile for summaries.
	QueryLatencies []float64
	// TrafficBytes is total off-chip memory traffic, with per-stream
	// detail in TrafficByStream.
	TrafficBytes    int64
	TrafficByStream map[string]int64
	// ChipEnergyJ is the accelerator energy (activity-based, Table I
	// component model); DRAMEnergyJ the off-chip memory energy.
	ChipEnergyJ, DRAMEnergyJ float64
	// EnergyByModule splits ChipEnergyJ: "cpm", "scm", "mem" (EFM+MAI)
	// and "idle" (leakage across the makespan).
	EnergyByModule map[string]float64
	// PhaseCycles breaks module busy time down by search phase:
	// "filter" and "lut" on the CPM, "scan" (summed over SCMs) and
	// "merge" on the SCMs.
	PhaseCycles map[string]int64
	// Timeline holds execution spans when AcceleratorConfig.Trace is on.
	Timeline []TimelineSpan
}

// Simulate runs the batch with the Section-IV memory-traffic-optimized
// cluster-major schedule — ANNA's high-throughput mode.
func (a *Accelerator) Simulate(queries [][]float32, p SimParams) (*SimReport, error) {
	return a.run(queries, p, true)
}

// SimulateBaseline runs the batch one query at a time — ANNA's low-latency
// mode and the "without optimization" baseline of Section V-B.
func (a *Accelerator) SimulateBaseline(queries [][]float32, p SimParams) (*SimReport, error) {
	return a.run(queries, p, false)
}

func (a *Accelerator) run(queries [][]float32, p SimParams, batched bool) (rep *SimReport, err error) {
	qm, err := toMatrix(queries)
	if err != nil {
		return nil, err
	}
	if qm.Cols != a.inner.Index().D {
		return nil, fmt.Errorf("anna: query dim %d, index dim %d", qm.Cols, a.inner.Index().D)
	}
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("anna: %v", r)
		}
	}()
	res := a.dispatch(qm, p, batched)
	return a.report(res), nil
}

func (a *Accelerator) dispatch(qm *vecmath.Matrix, p SimParams, batched bool) *iacc.Result {
	params := iacc.Params{
		W: p.W, K: p.K,
		SCMsPerQuery:   p.SCMsPerQuery,
		SkipFunctional: p.TimingOnly,
	}
	if batched {
		return a.inner.SearchBatched(qm, params)
	}
	return a.inner.SearchBaseline(qm, params)
}

func (a *Accelerator) report(res *iacc.Result) *SimReport {
	rep := &SimReport{
		Cycles:             int64(res.Cycles),
		Seconds:            res.Seconds,
		QPS:                res.QPS,
		MeanLatencySeconds: res.MeanLatencySeconds,
		QueryLatencies:     res.QueryLatencies,
		TrafficBytes:       res.TotalTrafficBytes,
		TrafficByStream:    make(map[string]int64, len(res.Traffic)),
	}
	for cls, b := range res.Traffic {
		rep.TrafficByStream[cls.String()] = b
	}
	rep.PhaseCycles = map[string]int64{
		"filter": int64(res.Phases.Filter),
		"lut":    int64(res.Phases.LUT),
		"scan":   int64(res.Phases.Scan),
		"merge":  int64(res.Phases.Merge),
	}
	rep.Results = res.PerQuery
	for _, sp := range res.Trace {
		rep.Timeline = append(rep.Timeline, TimelineSpan{
			Unit: sp.Resource, Work: sp.Label,
			Start: int64(sp.Start), End: int64(sp.End),
		})
	}

	// Energy: activity-based chip energy from the Table I component
	// model, and DRAM energy from traffic.
	idx := a.inner.Index()
	shape := energy.HWShape{
		NCU: a.cfg.NCU, NU: a.cfg.NU, NSCM: a.cfg.NSCM,
		CodebookBytes: int64(idx.PQ.CodebookBytes()),
		LUTBytes:      int64(idx.PQ.LUTBytes()),
		TopKEntries:   a.cfg.TopK,
		EVBBytes:      a.cfg.EVBBytes,
	}
	hz := a.cfg.FreqGHz * 1e9
	act := energy.Activity{
		MakespanSec:  res.Seconds,
		CPMBusySec:   float64(res.CPMBusy) / hz,
		SCMBusySec:   float64(res.SCMBusy) / hz,
		MemBusySec:   float64(res.DRAMBusy) / hz,
		TrafficBytes: res.TotalTrafficBytes,
	}
	eb := energy.ChipEnergyBreakdown(energy.Model(shape), act)
	rep.ChipEnergyJ = eb.Total()
	rep.EnergyByModule = map[string]float64{
		"cpm": eb.CPMJ, "scm": eb.SCMJ, "mem": eb.MemJ, "idle": eb.IdleJ,
	}
	rep.DRAMEnergyJ = energy.DRAMEnergy(act)
	return rep
}

// LatencyPercentile returns the p-th percentile (0..100, nearest-rank)
// of a latency sample, e.g. from SimReport.QueryLatencies. It returns 0
// for an empty sample and panics on p outside [0, 100].
func LatencyPercentile(latencies []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("anna: percentile %v out of [0,100]", p))
	}
	if len(latencies) == 0 {
		return 0
	}
	sorted := make([]float64, len(latencies))
	copy(sorted, latencies)
	sort.Float64s(sorted)
	rank := int(p/100*float64(len(sorted)-1) + 0.5)
	return sorted[rank]
}

// RenderTimeline draws a simulated run's execution spans as an ASCII
// Gantt chart (one row per hardware unit) — a textual Figure 7. width is
// the number of time columns (default 80 when <= 0).
func RenderTimeline(spans []TimelineSpan, width int) string {
	ss := make([]sim.Span, len(spans))
	for i, sp := range spans {
		ss[i] = sim.Span{
			Resource: sp.Unit, Label: sp.Work,
			Start: sim.Cycles(sp.Start), End: sim.Cycles(sp.End),
		}
	}
	return sim.RenderGantt(ss, width)
}

// SiliconReport is the Table I area/power breakdown for a configuration.
type SiliconReport struct {
	Modules      []SiliconModule
	TotalAreaMM2 float64
	TotalPeakW   float64
}

// SiliconModule is one Table I row.
type SiliconModule struct {
	Name    string
	AreaMM2 float64
	PeakW   float64
}

// Silicon returns the accelerator's area and peak power at TSMC 40 nm /
// 1 GHz from the calibrated component model (Table I).
func (a *Accelerator) Silicon() SiliconReport {
	idx := a.inner.Index()
	b := energy.Model(energy.HWShape{
		NCU: a.cfg.NCU, NU: a.cfg.NU, NSCM: a.cfg.NSCM,
		CodebookBytes: int64(idx.PQ.CodebookBytes()),
		LUTBytes:      int64(idx.PQ.LUTBytes()),
		TopKEntries:   a.cfg.TopK,
		EVBBytes:      a.cfg.EVBBytes,
	})
	return SiliconReport{
		Modules: []SiliconModule{
			{b.CPM.Name, b.CPM.AreaMM2, b.CPM.PeakW},
			{b.EFM.Name, b.EFM.AreaMM2, b.EFM.PeakW},
			{b.SCMs.Name + fmt.Sprintf(" (%dx)", a.cfg.NSCM), b.SCMs.AreaMM2, b.SCMs.PeakW},
			{b.MAI.Name, b.MAI.AreaMM2, b.MAI.PeakW},
		},
		TotalAreaMM2: b.TotalArea,
		TotalPeakW:   b.TotalW,
	}
}
