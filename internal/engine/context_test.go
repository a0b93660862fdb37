package engine

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"anna/internal/pq"
)

// A pre-cancelled context aborts the run before any query executes and
// surfaces the context's error, in both disciplines.
func TestRunContextCancelled(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{QueryAtATime, ClusterMajor} {
		rep, err := e.RunContext(ctx, ds.Queries, Options{Mode: mode, W: 6, K: 10})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", mode, err)
		}
		if rep != nil {
			t.Errorf("%v: got a report from a cancelled run", mode)
		}
		// Pool gauges must unwind even when the run is abandoned.
		if q, f := e.QueueDepth(), e.InFlight(); q != 0 || f != 0 {
			t.Errorf("%v: gauges after cancel: queued %d, inflight %d", mode, q, f)
		}
	}
}

func TestRunContextDeadline(t *testing.T) {
	idx, ds := testIndex(t, pq.InnerProduct)
	e := New(idx)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.RunContext(ctx, ds.Queries, Options{Mode: ClusterMajor, W: 6, K: 10})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// A cancelled run must not poison the engine: the next Run on the same
// engine (same pooled searchers/selectors) returns correct results.
func TestRunAfterCancelledRun(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := referenceResults(idx, ds, 6, 10, false)
	for _, mode := range []Mode{QueryAtATime, ClusterMajor} {
		e.RunContext(ctx, ds.Queries, Options{Mode: mode, W: 6, K: 10})
		rep := e.Run(ds.Queries, Options{Mode: mode, W: 6, K: 10})
		// Cluster-major tie order depends on worker scheduling, so (like
		// the reference-equality tests) compare scores, not IDs.
		resultsEqual(t, mode.String()+" after cancel", rep.Results, want)
	}
}

// countdownCtx reports cancellation from its (left+1)th Err call on, so a
// run is cancelled after a known number of work items have started — no
// timing involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A run cancelled mid-batch — some items done, some never started — must
// unwind both gauges and leave the pooled searchers, selectors and LUTs
// clean: the next run on the same engine matches a fresh engine's. In
// cluster-major the cut lands in phase 1 and, separately, in phase 2.
func TestRunCancelledMidBatch(t *testing.T) {
	for _, metric := range []pq.Metric{pq.L2, pq.InnerProduct} {
		idx, ds := testIndex(t, metric)
		n := int64(ds.Queries.Rows)
		for _, tc := range []struct {
			mode  Mode
			after int64 // work items allowed to start before the cancel
		}{
			{QueryAtATime, n / 2},
			{ClusterMajor, n / 2}, // inside phase 1
			{ClusterMajor, n + 4}, // inside phase 2 (one worker spends n+2 checks on phase 1)
		} {
			e := New(idx)
			opt := Options{Mode: tc.mode, W: 6, K: 10, Workers: 1}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(tc.after)
			rep, err := e.RunContext(ctx, ds.Queries, opt)
			if !errors.Is(err, context.Canceled) || rep != nil {
				t.Fatalf("%v/%v after %d: rep %v, err %v; want a cancelled run", metric, tc.mode, tc.after, rep, err)
			}
			if q, f := e.QueueDepth(), e.InFlight(); q != 0 || f != 0 {
				t.Errorf("%v/%v after %d: gauges after cancel: queued %d, inflight %d", metric, tc.mode, tc.after, q, f)
			}
			got := e.Run(ds.Queries, opt)
			want := New(idx).Run(ds.Queries, opt)
			for qi := range want.Results {
				if !slices.Equal(got.Results[qi], want.Results[qi]) {
					t.Fatalf("%v/%v after %d: q%d differs from a fresh engine's: %v vs %v",
						metric, tc.mode, tc.after, qi, got.Results[qi], want.Results[qi])
				}
			}
		}
	}
}

// Every completed run reports non-zero select and scan stage times, and
// the pool gauges read zero when idle.
func TestStageTimesAndGauges(t *testing.T) {
	idx, ds := testIndex(t, pq.L2)
	e := New(idx)
	for _, mode := range []Mode{QueryAtATime, ClusterMajor} {
		rep := e.Run(ds.Queries, Options{Mode: mode, W: 6, K: 10})
		if rep.SelectTime <= 0 {
			t.Errorf("%v: SelectTime %v", mode, rep.SelectTime)
		}
		if rep.ScanTime <= 0 {
			t.Errorf("%v: ScanTime %v", mode, rep.ScanTime)
		}
		if rep.MergeTime < 0 {
			t.Errorf("%v: MergeTime %v", mode, rep.MergeTime)
		}
		if q, f := e.QueueDepth(), e.InFlight(); q != 0 || f != 0 {
			t.Errorf("%v: idle gauges: queued %d, inflight %d", mode, q, f)
		}
	}
}
