// Package adaptive holds the per-query effort policies of ROADMAP open
// item 4: early termination of the cluster scan, escalation of a margin
// band of candidates through the SQ8 re-rank machinery, and the
// recall-SLO controller that closes the loop between the serving layer's
// shadow recall estimator and the search knobs.
//
// Everything here is a deterministic, allocation-free state machine so
// the policies can be unit-tested exhaustively and embedded in the
// engine's hot path without synchronization. The policies trade the
// engine's bit-exactness guarantee for a documented recall contract (see
// docs/ARCHITECTURE.md §4j): with termination disabled (Patience == 0)
// and escalation disabled (EscalateFactor <= 1) the adaptive path is
// bit-identical to the fixed-W scan.
package adaptive

import (
	"math"

	"anna/internal/topk"
)

// Params are the per-query effort knobs threaded from the public API
// (where they are anna.AdaptiveOptions) through the engine into
// ivf.Searcher.Search. The zero value disables both policies: the
// fixed-W scan.
type Params struct {
	// StopPatience stops the cluster scan once the running kth score has
	// not improved for this many consecutive clusters. 0 (or negative)
	// never stops: all W selected clusters are scanned.
	StopPatience int
	// MinClusters is a floor: termination is never taken before this
	// many clusters have been scanned (values < 1 behave as 1).
	MinClusters int
	// EscalateFactor > 1 enables precision escalation: the PQ scan keeps
	// K*EscalateFactor candidates and the margin band among them is
	// re-scored against the SQ8 reconstructions. <= 1 disables it.
	EscalateFactor int
	// Margin sets the escalation band width as a fraction of the
	// top1-to-kth score spread (see Band). 0 re-scores only the top K.
	Margin float32
}

// Enabled reports whether either adaptive policy is active.
func (p Params) Enabled() bool { return p.StopPatience > 0 || p.EscalateFactor > 1 }

// Termination is the early-termination state machine for one query's
// cluster scan. Reset it, then call Observe after each scanned cluster
// with the selector's current threshold; Observe reports when the scan
// should stop. The policy: stop once the kth-best score has gone
// Patience consecutive clusters without improving, but never before
// MinClusters clusters (or before the selector has filled — an unfilled
// selector improves by definition).
type Termination struct {
	Patience    int // consecutive non-improving clusters before stopping; <= 0 never stops
	MinClusters int // scan at least this many clusters; < 1 behaves as 1

	scanned  int
	stale    int
	best     float32
	haveBest bool
}

// Reset clears the per-query state, keeping the policy knobs.
func (t *Termination) Reset() {
	t.scanned, t.stale, t.best, t.haveBest = 0, 0, 0, false
}

// Observe records the selector state after one scanned cluster — kth is
// Selector.Threshold() and full is its ok result — and reports whether
// the scan should stop before the next cluster.
func (t *Termination) Observe(kth float32, full bool) bool {
	t.scanned++
	switch {
	case !full:
		// Top-k not yet filled: every cluster still contributes.
		t.stale = 0
	case !t.haveBest || kth > t.best:
		t.best, t.haveBest = kth, true
		t.stale = 0
	default:
		t.stale++
	}
	if t.Patience <= 0 {
		return false
	}
	min := t.MinClusters
	if min < 1 {
		min = 1
	}
	return t.scanned >= min && t.stale >= t.Patience
}

// Scanned returns how many clusters have been observed since Reset.
func (t *Termination) Scanned() int { return t.scanned }

// Band returns how many of the leading candidates fall inside the
// escalation band: every candidate whose approximate score lies within
// margin*(top1 - last) of the kth score, where top1-last is the spread
// of the whole candidate list. Normalizing by the full spread (rather
// than top1-kth) keeps the band meaningful on heavily quantized score
// distributions where the entire top k can tie exactly. cands must be
// sorted by descending score (a drained selector). The band always
// includes the top k (the result set must be re-scored to be
// reordered), always includes exact ties with the kth, and never
// exceeds len(cands). margin < 0 behaves as 0; k < 1 behaves as 1.
func Band(cands []topk.Result, k int, margin float32) int {
	if k < 1 {
		k = 1
	}
	if len(cands) <= k {
		return len(cands)
	}
	if margin < 0 {
		margin = 0
	}
	top, last, kth := cands[0].Score, cands[len(cands)-1].Score, cands[k-1].Score
	cut := kth - margin*(top-last)
	n := k
	for n < len(cands) && cands[n].Score >= cut {
		n++
	}
	return n
}

// Knobs is one operating point on the controller's effort ladder: the
// effective search width plus the Params it implies. Higher-effort knobs
// spend more work per query for more recall.
type Knobs struct {
	// W is the effective cluster-filter width applied to requests that
	// do not pin their own (0 = leave the request's W alone).
	W int
	// StopPatience / MinClusters / EscalateFactor / Margin mirror Params.
	StopPatience   int
	MinClusters    int
	EscalateFactor int
	Margin         float32
}

// Params converts the knobs to engine search parameters.
func (k Knobs) Params() Params {
	return Params{
		StopPatience:   k.StopPatience,
		MinClusters:    k.MinClusters,
		EscalateFactor: k.EscalateFactor,
		Margin:         k.Margin,
	}
}

// ControllerConfig configures the recall-SLO controller.
type ControllerConfig struct {
	// Target is the recall SLO in (0, 1]: the controller raises effort
	// while the estimate sits below it and lowers effort only when the
	// estimate clears Target+Deadband (asymmetric: dipping below the SLO
	// is acted on immediately, headroom must clear the deadband).
	Target float64
	// Deadband is the no-action margin above Target (default 0.01).
	Deadband float64
	// Hysteresis is how many consecutive out-of-band observations are
	// required before a step (default 3) — one noisy estimator window
	// never moves the knobs.
	Hysteresis int
	// MinSamples is how many new estimator samples must have been
	// processed since the last step before the controller acts again
	// (default 32), so one window is never double-counted.
	MinSamples uint64
	// Low and High are the effort ladder's endpoints; Levels is its
	// resolution (default 8) and Start the initial level (default
	// Levels, i.e. maximum effort — the controller relaxes from safe).
	Low, High Knobs
	Levels    int
	Start     int
}

func (c *ControllerConfig) defaults() {
	if c.Deadband <= 0 {
		c.Deadband = 0.01
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	if c.MinSamples == 0 {
		c.MinSamples = 32
	}
	if c.Levels <= 0 {
		c.Levels = 8
	}
	if c.Start < 0 {
		c.Start = 0
	}
	if c.Start > c.Levels {
		c.Start = c.Levels
	}
}

// Controller is the closed-loop recall-SLO autotuner: a deterministic
// state machine stepping a single integer effort level up and down the
// ladder between Low and High knobs. Steps are bounded to one level per
// decision, gated by hysteresis (consecutive out-of-band observations)
// and by fresh estimator samples. It is not safe for concurrent use;
// the serving layer drives it from one goroutine and publishes the
// resulting Knobs atomically.
type Controller struct {
	cfg    ControllerConfig
	level  int
	below  int
	above  int
	anchor uint64 // estimator processed-count at the last step
	steps  uint64
}

// NewController returns a controller at cfg.Start effort. cfg.Target
// must be in (0, 1].
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Target <= 0 || cfg.Target > 1 {
		panic("adaptive: controller target must be in (0, 1]")
	}
	cfg.defaults()
	return &Controller{cfg: cfg, level: cfg.Start}
}

// Level returns the current effort level in [0, Levels].
func (c *Controller) Level() int { return c.level }

// MaxLevel returns the top of the effort ladder.
func (c *Controller) MaxLevel() int { return c.cfg.Levels }

// Steps returns how many knob changes the controller has made.
func (c *Controller) Steps() uint64 { return c.steps }

// Knobs returns the operating point for the current level, interpolated
// between the configured Low and High endpoints.
func (c *Controller) Knobs() Knobs {
	t := float64(c.level) / float64(c.cfg.Levels)
	lo, hi := c.cfg.Low, c.cfg.High
	return Knobs{
		W:              lerpInt(lo.W, hi.W, t),
		StopPatience:   lerpInt(lo.StopPatience, hi.StopPatience, t),
		MinClusters:    lerpInt(lo.MinClusters, hi.MinClusters, t),
		EscalateFactor: lerpInt(lo.EscalateFactor, hi.EscalateFactor, t),
		Margin:         float32(float64(lo.Margin) + t*float64(hi.Margin-lo.Margin)),
	}
}

// Observe feeds one controller tick: the estimator's rolling recall and
// its cumulative processed-sample count. It returns the knobs to serve
// with and whether they just changed. Until MinSamples fresh samples
// have accumulated since the last step (or since start), the controller
// holds still — warmup and post-step settling share the same gate.
func (c *Controller) Observe(recall float64, processed uint64) (Knobs, bool) {
	if processed < c.anchor || processed-c.anchor < c.cfg.MinSamples {
		return c.Knobs(), false
	}
	switch {
	case recall < c.cfg.Target:
		c.below++
		c.above = 0
	case recall > c.cfg.Target+c.cfg.Deadband:
		c.above++
		c.below = 0
	default:
		c.below, c.above = 0, 0
	}
	changed := false
	if c.below >= c.cfg.Hysteresis && c.level < c.cfg.Levels {
		c.level++
		changed = true
	} else if c.above >= c.cfg.Hysteresis && c.level > 0 {
		c.level--
		changed = true
	}
	if changed {
		c.below, c.above = 0, 0
		c.anchor = processed
		c.steps++
	}
	return c.Knobs(), changed
}

// lerpInt interpolates between lo and hi at t in [0,1], rounding to
// nearest so the ladder endpoints are hit exactly.
func lerpInt(lo, hi int, t float64) int {
	return lo + int(math.Round(float64(hi-lo)*t))
}
