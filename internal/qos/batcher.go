// Package qos is the traffic-shaping layer of the serving path
// (ROADMAP item 4): a dynamic query batcher that coalesces concurrent
// requests into engine batches, per-tenant admission (token-bucket
// quotas, weighted-fair dequeue, interactive vs. bulk priority lanes),
// and a result cache keyed on quantized queries.
//
// The motivation is the paper's Figure 5: the engine is fastest in
// cluster-major mode because inverted-list loads are amortized across a
// batch of queries, but an HTTP server naturally dispatches a batch of
// one per request. The Batcher restores the batch without ever idling
// the engine to let one fill: a request that finds a free engine slot
// runs at once, requests that arrive while every slot is busy park, and
// a completing batch takes the backlog (up to a maximum batch size) as
// its slot's next engine run, with results fanned back to the waiting
// requests. Execution remains per-query independent inside the engine,
// so coalescing is bit-exact with per-request serving.
//
// The package is deliberately engine-agnostic — the Batcher is generic
// over the per-query result type and calls back into a RunFunc — so it
// carries no dependency on the index or engine packages and can be
// exercised hermetically in tests.
package qos

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Lane is a scheduling priority class. Interactive requests are always
// dequeued into a batch before Bulk requests, so a bulk/backfill flood
// can delay an interactive query by at most the engine batches already
// in flight — never by the length of the bulk backlog.
type Lane int

const (
	// Interactive is the latency-sensitive lane (the default).
	Interactive Lane = iota
	// Bulk is the throughput lane for backfill/batch traffic; it is
	// served only from batch capacity interactive requests left unused.
	Bulk
)

// String returns "interactive" or "bulk".
func (l Lane) String() string {
	if l == Bulk {
		return "bulk"
	}
	return "interactive"
}

// ParseLane parses "interactive" or "bulk" (batch is accepted as an
// alias for bulk).
func ParseLane(s string) (Lane, error) {
	switch s {
	case "interactive", "":
		return Interactive, nil
	case "bulk", "batch":
		return Bulk, nil
	}
	return 0, fmt.Errorf("qos: unknown lane %q (want interactive or bulk)", s)
}

// RunFunc executes one coalesced batch: queries[i] produces results[i].
// It is called outside the batcher's lock and may run concurrently with
// other batches. ctx is canceled when every request in the batch has
// abandoned (client disconnects), and carries the latest deadline of
// the batch members when all of them have one.
type RunFunc[R any] func(ctx context.Context, queries [][]float32, w, k int) ([]R, error)

// BatchInfo describes the coalesced batch a request rode in.
type BatchInfo struct {
	// Size is the number of queries in the executed engine batch.
	Size int
	// Wait is the time the request spent queued behind busy engine
	// slots before its batch started: scheduling noise when a slot was
	// free, the saturation signal when none was.
	Wait time.Duration
}

// Observer receives batcher events for metrics. Callbacks must be safe
// for concurrent use; nil fields are skipped.
type Observer struct {
	// Flush is called once per executed batch with its size and the
	// queue depth its class left behind.
	Flush func(size, remaining int)
	// Wait is called once per executed query with its BatchInfo.Wait.
	Wait func(d time.Duration)
}

// BatcherOptions configure a Batcher.
type BatcherOptions struct {
	// MaxBatch caps the queries one engine batch takes from the backlog
	// (default 64).
	MaxBatch int
	// MaxConcurrent is the number of engine slots: batches executing at
	// once (default runtime.GOMAXPROCS(0)). The bound is what makes
	// queries coalesce and gives the priority lanes teeth: demand beyond
	// it backs up in the batcher's queues — where interactive requests
	// jump ahead of bulk and a freed slot takes a whole batch — instead
	// of racing into the engine in arrival order.
	MaxConcurrent int
	// Observer receives flush/wait events for metrics.
	Observer Observer
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("qos: batcher closed")

// outcome is what a batch delivers to one waiting request.
type outcome[R any] struct {
	res  R
	info BatchInfo
	err  error
}

// waiter is one request in the batcher.
type waiter[R any] struct {
	ctx   context.Context
	query []float32
	enq   time.Time
	seq   uint64          // parking order; decides which class a freed slot serves
	ch    chan outcome[R] // buffered(1): a batch never blocks on delivery
}

// tenantQ is one tenant's FIFO within a lane.
type tenantQ[R any] struct {
	name   string
	weight int
	q      []*waiter[R]
}

// laneQ holds the per-tenant queues of one priority lane and dequeues
// them weighted-fair: a round-robin over tenants that grants each up to
// its weight in queries per pass, so a tenant with weight 4 drains 4x
// faster than a weight-1 tenant but can never lock others out.
type laneQ[R any] struct {
	order []*tenantQ[R] // tenants with queued work, arrival order
	rr    int           // next tenant to serve
	n     int           // total queued waiters in the lane
}

func (l *laneQ[R]) enqueue(tenant string, weight int, w *waiter[R]) {
	if weight < 1 {
		weight = 1
	}
	for _, t := range l.order {
		if t.name == tenant {
			t.weight = weight
			t.q = append(t.q, w)
			l.n++
			return
		}
	}
	l.order = append(l.order, &tenantQ[R]{name: tenant, weight: weight, q: []*waiter[R]{w}})
	l.n++
}

// dequeue appends up to max-len(dst) waiters to dst in weighted
// round-robin order and returns the extended slice.
func (l *laneQ[R]) dequeue(dst []*waiter[R], max int) []*waiter[R] {
	for l.n > 0 && len(dst) < max {
		if l.rr >= len(l.order) {
			l.rr = 0
		}
		t := l.order[l.rr]
		for take := t.weight; take > 0 && len(t.q) > 0 && len(dst) < max; take-- {
			dst = append(dst, t.q[0])
			t.q[0] = nil // release for GC; the backing array is kept
			t.q = t.q[1:]
			l.n--
		}
		if len(t.q) == 0 {
			l.order = append(l.order[:l.rr], l.order[l.rr+1:]...)
			// l.rr now points at the next tenant already.
		} else {
			l.rr++
		}
	}
	return dst
}

// class groups parked waiters that can share one engine batch: a batch
// has a single (W, K), so requests with different knobs coalesce
// separately. A class lives in Batcher.classes only while it is
// non-empty.
type class[R any] struct {
	w, k  int
	lanes [2]laneQ[R] // [Interactive, Bulk]
}

func (c *class[R]) queued() int { return c.lanes[0].n + c.lanes[1].n }

// head returns the waiter assemble would dequeue first.
func (c *class[R]) head() *waiter[R] {
	l := &c.lanes[0]
	if l.n == 0 {
		l = &c.lanes[1]
	}
	return l.order[l.rr%len(l.order)].q[0]
}

// batch is one engine run: waiters of a single class.
type batch[R any] struct {
	w, k      int
	waiters   []*waiter[R]
	remaining int // waiters the class still holds, for Observer.Flush
}

// Batcher coalesces concurrent single-query submissions into bounded
// engine batches. It is work-conserving: a query waits only while every
// slot is executing, so the invariant under mu is
//
//	queuedN > 0  ⇒  running == maxConc
//
// and a slot finishing its batch is the only event that drains the
// backlog. Batches are therefore size 1 on an idle server and grow
// toward MaxBatch as load saturates the slots — which is when
// amortising cluster selection and list loads across a batch pays.
// Safe for concurrent use.
type Batcher[R any] struct {
	run      RunFunc[R]
	maxBatch int
	maxConc  int
	obs      Observer

	mu      sync.Mutex
	classes map[[2]int]*class[R] // (W, K) → parked waiters; non-empty classes only
	queuedN int
	seq     uint64 // last waiter.seq handed out
	running int    // slots executing a batch
	closed  bool
	slotWG  sync.WaitGroup // one unit per occupied slot; Drain waits on it
}

// NewBatcher returns a batcher that executes batches through run.
func NewBatcher[R any](run RunFunc[R], opt BatcherOptions) *Batcher[R] {
	if run == nil {
		panic("qos: NewBatcher requires a RunFunc")
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 64
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	return &Batcher[R]{
		run:      run,
		maxBatch: opt.MaxBatch,
		maxConc:  opt.MaxConcurrent,
		obs:      opt.Observer,
		classes:  map[[2]int]*class[R]{},
	}
}

// QueueDepth returns the number of queries parked in the batcher (not
// yet handed to a running batch).
func (b *Batcher[R]) QueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queuedN
}

// Submit executes one query and blocks until its batch has run or ctx
// is done. With a slot free the query starts at once as a batch of one;
// otherwise it parks until a completing batch hands its slot over. The
// query slice is copied, so the caller may recycle its buffer as soon
// as Submit returns — even on cancellation, when the batch may still
// execute afterwards.
func (b *Batcher[R]) Submit(ctx context.Context, tenant string, lane Lane, weight int, query []float32, w, k int) (R, BatchInfo, error) {
	var zero R
	wt := &waiter[R]{
		ctx:   ctx,
		query: append([]float32(nil), query...),
		enq:   time.Now(),
		ch:    make(chan outcome[R], 1),
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return zero, BatchInfo{}, ErrClosed
	}
	if b.running < b.maxConc {
		// A free slot means nothing is parked (the invariant), so this
		// query is the whole batch.
		b.running++
		b.slotWG.Add(1)
		b.mu.Unlock()
		go b.runSlot(batch[R]{w: w, k: k, waiters: []*waiter[R]{wt}})
	} else {
		ck := [2]int{w, k}
		c := b.classes[ck]
		if c == nil {
			c = &class[R]{w: w, k: k}
			b.classes[ck] = c
		}
		li := 0
		if lane == Bulk {
			li = 1
		}
		b.seq++
		wt.seq = b.seq
		c.lanes[li].enqueue(tenant, weight, wt)
		b.queuedN++
		b.mu.Unlock()
	}

	select {
	case out := <-wt.ch:
		return out.res, out.info, out.err
	case <-ctx.Done():
		// The batch may still execute this query (its copy lives in the
		// queue); the outcome lands in the buffered channel and is
		// dropped.
		return zero, BatchInfo{}, ctx.Err()
	}
}

// runSlot executes bt in the slot its caller claimed, then keeps the
// slot for as long as there is a backlog: each pass takes the next
// batch from the class that has waited longest. The slot is released
// only once nothing is parked, which is what maintains the invariant.
func (b *Batcher[R]) runSlot(bt batch[R]) {
	defer b.slotWG.Done()
	for {
		b.execute(bt)
		b.mu.Lock()
		c := b.nextClass()
		if c == nil {
			b.running--
			b.mu.Unlock()
			return
		}
		bt = b.assemble(c)
		b.mu.Unlock()
	}
}

// nextClass picks the class a freed slot serves: the one whose head
// waiter parked first, nil when nothing is parked. Ordering by the head
// rather than by map iteration makes hand-off deterministic, and no
// class starves: only the finitely many waiters parked before a class's
// head can be served ahead of it. Caller holds b.mu.
func (b *Batcher[R]) nextClass() *class[R] {
	var next *class[R]
	for _, c := range b.classes {
		if next == nil || c.head().seq < next.head().seq {
			next = c
		}
	}
	return next
}

// assemble removes up to maxBatch waiters from c — interactive lane
// first, then bulk, each weighted-fair across tenants. Caller holds
// b.mu.
func (b *Batcher[R]) assemble(c *class[R]) batch[R] {
	ws := make([]*waiter[R], 0, min(c.queued(), b.maxBatch))
	ws = c.lanes[0].dequeue(ws, b.maxBatch)
	ws = c.lanes[1].dequeue(ws, b.maxBatch)
	b.queuedN -= len(ws)
	remaining := c.queued()
	if remaining == 0 {
		delete(b.classes, [2]int{c.w, c.k})
	}
	return batch[R]{w: c.w, k: c.k, waiters: ws, remaining: remaining}
}

// execute runs one batch and fans results back out.
func (b *Batcher[R]) execute(bt batch[R]) {
	// Skip waiters that gave up while parked; their Submit has already
	// returned ctx.Err().
	live := bt.waiters[:0]
	for _, w := range bt.waiters {
		if w.ctx.Err() == nil {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return
	}
	if b.obs.Flush != nil {
		b.obs.Flush(len(live), bt.remaining)
	}
	queries := make([][]float32, len(live))
	for i, w := range live {
		queries[i] = w.query
	}

	// The batch context outlives any single member: it is canceled only
	// once every member has abandoned, and carries the latest member
	// deadline when every member has one (a member with an earlier
	// deadline times out individually in Submit while the batch
	// finishes for the others).
	bctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var latest time.Time
	allBounded := true
	for _, w := range live {
		if d, ok := w.ctx.Deadline(); ok {
			if d.After(latest) {
				latest = d
			}
		} else {
			allBounded = false
		}
	}
	if allBounded {
		var dcancel context.CancelFunc
		bctx, dcancel = context.WithDeadline(bctx, latest)
		defer dcancel()
	}
	alive := int32(len(live))
	stops := make([]func() bool, len(live))
	for i, w := range live {
		stops[i] = context.AfterFunc(w.ctx, func() {
			if atomic.AddInt32(&alive, -1) == 0 {
				cancel()
			}
		})
	}

	start := time.Now()
	res, err := b.run(bctx, queries, bt.w, bt.k)
	for _, stop := range stops {
		stop()
	}
	if err == nil && len(res) != len(live) {
		err = fmt.Errorf("qos: batch run returned %d results for %d queries", len(res), len(live))
	}
	for i, w := range live {
		out := outcome[R]{info: BatchInfo{Size: len(live), Wait: start.Sub(w.enq)}}
		if err != nil {
			out.err = err
		} else {
			out.res = res[i]
		}
		if b.obs.Wait != nil {
			b.obs.Wait(out.info.Wait)
		}
		w.ch <- out
	}
}

// Close fails subsequent Submits with ErrClosed. Parked requests are
// still served: by the invariant every slot is busy while any are
// parked, and the slots keep draining the backlog as they finish. It
// does not wait for them.
func (b *Batcher[R]) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// Drain closes the batcher and then blocks until every slot has run
// the backlog dry and delivered its outcomes. After Drain returns, no
// batch goroutine is running and no waiter is parked, so the engine
// underneath can be torn down safely.
func (b *Batcher[R]) Drain() {
	b.Close()
	b.slotWG.Wait()
}
