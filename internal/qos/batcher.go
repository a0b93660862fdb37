// Package qos is the traffic-shaping layer of the serving path
// (ROADMAP item 4): a dynamic query batcher that coalesces concurrent
// requests into engine batches, per-tenant admission (token-bucket
// quotas, weighted-fair dequeue, interactive vs. bulk priority lanes),
// and a result cache keyed on quantized queries.
//
// The motivation is the paper's Figure 5: the engine is fastest in
// cluster-major mode because inverted-list loads are amortized across a
// batch of queries, but an HTTP server naturally dispatches a batch per
// request. The Batcher restores the batch without ever idling the
// engine to let one fill: a request (a member of one or more queries)
// that finds a free engine slot runs at once, requests that arrive
// while every slot is busy park, and a completing batch takes the
// backlog (up to a maximum batch size, whole members only) as its
// slot's next engine run, with results fanned back to the waiting
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
	"math"
	"runtime"
	"slices"
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
	// Size is the number of queries in the executed engine batch, the
	// request's own included.
	Size int
	// Wait is the time the request spent queued behind busy engine
	// slots before its batch started: scheduling noise when a slot was
	// free, the saturation signal when none was.
	Wait time.Duration
}

// Observer receives batcher events for metrics, counted in queries.
// Callbacks must be safe for concurrent use; nil fields are skipped.
type Observer struct {
	// Flush is called once per executed batch with its size.
	Flush func(size int)
	// Wait is called once per executed query with its BatchInfo.Wait.
	Wait func(d time.Duration)
}

// BatcherOptions configure a Batcher.
type BatcherOptions struct {
	// MaxBatch caps the queries one engine batch takes from the backlog
	// (default 64). A batch takes members only whole; one larger than
	// MaxBatch runs alone.
	MaxBatch int
	// MaxConcurrent is the number of engine slots: batches executing at
	// once (0 means runtime.GOMAXPROCS(0)). The bound is what makes
	// queries coalesce and gives the priority lanes teeth: demand beyond
	// it backs up in the batcher's queues — where interactive requests
	// jump ahead of bulk and a freed slot takes a whole batch — instead
	// of racing into the engine in arrival order. Negative switches
	// coalescing off: every member finds a free slot, so it runs on its
	// caller's goroutine, unbounded, uncopied and unobserved.
	MaxConcurrent int
	// Observer receives flush/wait events for metrics.
	Observer Observer
}

// ErrClosed is returned by Submit and SubmitMember after Close.
var ErrClosed = errors.New("qos: batcher closed")

// outcome is what a batch delivers to one waiting request.
type outcome[R any] struct {
	res  []R
	info BatchInfo
	err  error
}

// waiter is one member: a request's queries, which travel as a unit.
type waiter[R any] struct {
	ctx     context.Context
	queries [][]float32
	enq     time.Time
	seq     uint64          // parking order; decides which class a freed slot serves
	ch      chan outcome[R] // buffered(1): a batch never blocks on delivery
}

// tenantQ is one tenant's FIFO of members within a lane.
type tenantQ[R any] struct {
	name   string
	weight int
	credit int // queries left in this visit; negative is a debt
	q      []*waiter[R]
}

// laneQ holds the per-tenant queues of one priority lane and dequeues
// them weighted-fair in queries: a deficit round-robin in which a visit
// is worth the tenant's weight in queries, spent on whole members (an
// overshoot is repaid from later visits), so a weight-4 tenant drains
// 4x the queries of a weight-1 tenant but can never lock others out.
type laneQ[R any] struct {
	order []*tenantQ[R] // tenants with queued work, arrival order
	rr    int           // next tenant to serve
	n     int           // total queued queries in the lane
}

func (l *laneQ[R]) enqueue(tenant string, weight int, w *waiter[R]) {
	l.n += len(w.queries)
	for _, t := range l.order {
		if t.name == tenant {
			t.weight = max(weight, 1)
			t.q = append(t.q, w)
			return
		}
	}
	weight = max(weight, 1)
	l.order = append(l.order, &tenantQ[R]{name: tenant, weight: weight, credit: weight, q: []*waiter[R]{w}})
}

// dequeue appends whole members to dst (holding n queries) and returns
// it with its query count. It stops before a member that would take the
// batch past limit queries, unless the batch is empty; that tenant keeps
// its turn and credit for the next batch.
func (l *laneQ[R]) dequeue(dst []*waiter[R], n, limit int) ([]*waiter[R], int) {
	for l.n > 0 && n < limit {
		if l.rr >= len(l.order) {
			l.rr = 0
		}
		t := l.order[l.rr]
		for len(t.q) > 0 && t.credit > 0 {
			m := len(t.q[0].queries)
			if n > 0 && n+m > limit {
				return dst, n
			}
			dst = append(dst, t.q[0])
			t.q[0] = nil // release for GC; the backing array is kept
			t.q = t.q[1:]
			t.credit -= m
			l.n -= m
			n += m
		}
		if len(t.q) == 0 {
			l.order = append(l.order[:l.rr], l.order[l.rr+1:]...)
			// l.rr now points at the next tenant already.
		} else {
			t.credit += t.weight // the share of its next visit
			l.rr++
		}
	}
	return dst, n
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

// batch is one engine run: members of a single class.
type batch[R any] struct {
	w, k    int
	waiters []*waiter[R]
}

// Batcher coalesces concurrent submissions into bounded engine batches.
// It is work-conserving: a member waits only while every slot is
// executing, so the invariant under mu is
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
	classes map[[2]int]*class[R] // (W, K) → parked members; non-empty classes only
	queuedN int                  // parked queries
	seq     uint64               // last waiter.seq handed out
	running int                  // slots executing a batch
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
	if opt.MaxConcurrent == 0 {
		opt.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opt.MaxConcurrent < 0 {
		// Coalescing off: a slot is always free, and no run is observed.
		opt.MaxConcurrent, opt.Observer = math.MaxInt, Observer{}
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

// Submit executes a single query: SubmitMember of a member of one.
func (b *Batcher[R]) Submit(ctx context.Context, tenant string, lane Lane, weight int, query []float32, w, k int) (R, BatchInfo, error) {
	var r R
	res, info, err := b.SubmitMember(ctx, tenant, lane, weight, [][]float32{query}, w, k)
	if err == nil {
		r = res[0]
	}
	return r, info, err
}

// SubmitMember executes one member — queries, n ≥ 1, from one request —
// and blocks until its batch has run or ctx is done; results[i] answers
// queries[i]. With a slot free the member runs at once, on the caller's
// goroutine, as a batch of its own; otherwise it parks until a
// completing batch hands its slot over. Drain waits for both.
func (b *Batcher[R]) SubmitMember(ctx context.Context, tenant string, lane Lane, weight int, queries [][]float32, w, k int) ([]R, BatchInfo, error) {
	enq := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, BatchInfo{}, ErrClosed
	}
	if b.running < b.maxConc {
		// A free slot means nothing is parked (the invariant): the member
		// runs here, alone and uncopied. The deferred hand-off frees the
		// slot even if the run panics, and starts a goroutine for a backlog.
		b.running++
		b.slotWG.Add(1)
		b.mu.Unlock()
		defer func() {
			if bt, ok := b.handOff(); ok {
				go b.runSlot(bt)
			}
		}()
		info := BatchInfo{Size: len(queries), Wait: time.Since(enq)}
		if b.obs.Flush != nil {
			b.obs.Flush(len(queries))
		}
		for i := 0; b.obs.Wait != nil && i < len(queries); i++ {
			b.obs.Wait(info.Wait)
		}
		res, err := b.runChecked(ctx, queries, w, k)
		return res, info, err
	}
	// Parked members are copied (under the lock, only when saturated) so
	// the caller may recycle its buffers even if it gives up first.
	wt := &waiter[R]{
		ctx:     ctx,
		queries: cloneQueries(queries),
		enq:     enq,
		ch:      make(chan outcome[R], 1),
	}
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
	b.queuedN += len(queries)
	b.mu.Unlock()

	select {
	case out := <-wt.ch:
		return out.res, out.info, out.err
	case <-ctx.Done():
		// The batch may still execute this member (its copy lives in
		// the queue); the outcome lands in the buffered channel and is
		// dropped.
		return nil, BatchInfo{}, ctx.Err()
	}
}

// cloneQueries copies queries into one backing array.
func cloneQueries(queries [][]float32) [][]float32 {
	flat := slices.Concat(queries...)
	out := make([][]float32, len(queries))
	for i, q := range queries {
		out[i], flat = flat[:len(q):len(q)], flat[len(q):]
	}
	return out
}

// runChecked calls the RunFunc and checks it answered every query.
func (b *Batcher[R]) runChecked(ctx context.Context, queries [][]float32, w, k int) ([]R, error) {
	res, err := b.run(ctx, queries, w, k)
	if err == nil && len(res) != len(queries) {
		err = fmt.Errorf("qos: batch run returned %d results for %d queries", len(res), len(queries))
	}
	return res, err
}

// runSlot executes bt in the slot handed to it, then keeps the slot for
// as long as there is a backlog.
func (b *Batcher[R]) runSlot(bt batch[R]) {
	for ok := true; ok; bt, ok = b.handOff() {
		b.execute(bt)
	}
}

// handOff is called by a slot that finished a batch: it returns the
// slot's next batch, taken from the class that has waited longest, or
// releases the slot (ok false) once nothing is parked, which is what
// maintains the invariant.
func (b *Batcher[R]) handOff() (bt batch[R], ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.nextClass()
	if c == nil {
		b.running--
		b.slotWG.Done()
		return bt, false
	}
	return b.assemble(c), true
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

// assemble removes whole members holding up to maxBatch queries from c
// (one larger member alone) — interactive lane first, then bulk, each
// weighted-fair across tenants. Caller holds b.mu.
func (b *Batcher[R]) assemble(c *class[R]) batch[R] {
	ws, n := make([]*waiter[R], 0, min(c.queued(), b.maxBatch)), 0
	ws, n = c.lanes[0].dequeue(ws, n, b.maxBatch)
	ws, n = c.lanes[1].dequeue(ws, n, b.maxBatch)
	b.queuedN -= n
	if c.queued() == 0 {
		delete(b.classes, [2]int{c.w, c.k})
	}
	return batch[R]{w: c.w, k: c.k, waiters: ws}
}

// execute runs one batch and fans results back out.
func (b *Batcher[R]) execute(bt batch[R]) {
	// Skip waiters that gave up while parked; their SubmitMember has already
	// returned ctx.Err().
	live := bt.waiters[:0]
	var queries [][]float32
	for _, w := range bt.waiters {
		if w.ctx.Err() == nil {
			live = append(live, w)
			queries = append(queries, w.queries...)
		}
	}
	if len(live) == 0 {
		return
	}
	if b.obs.Flush != nil {
		b.obs.Flush(len(queries))
	}

	// The batch context outlives any single member: it is canceled only
	// once every member has abandoned, and carries the latest member
	// deadline when every member has one (a member with an earlier
	// deadline times out individually in SubmitMember while the batch
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
	res, err := b.runChecked(bctx, queries, bt.w, bt.k)
	for _, stop := range stops {
		stop()
	}
	off := 0
	for _, w := range live {
		n := len(w.queries)
		out := outcome[R]{info: BatchInfo{Size: len(queries), Wait: start.Sub(w.enq)}, err: err}
		if err == nil {
			out.res = res[off : off+n : off+n]
		}
		off += n
		for i := 0; b.obs.Wait != nil && i < n; i++ {
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
// the backlog dry and delivered its outcomes, including runs on their
// callers' goroutines. After Drain returns, no batch is running and no
// member is parked, so the engine underneath can be torn down safely.
func (b *Batcher[R]) Drain() {
	b.Close()
	b.slotWG.Wait()
}
