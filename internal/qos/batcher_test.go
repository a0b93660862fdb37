package qos

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// started is what a gated batch announces when its run begins.
type started struct {
	firsts []float32 // first component of each query, in batch order
	w      int
	ctx    context.Context
}

// gatedRun is a RunFunc under the test's control: every batch announces
// itself on entered and then blocks until the test sends on release, so
// a test decides exactly when an engine slot is busy and observes each
// batch's composition without sleeping. It echoes each query's first
// component so fan-out mapping is checkable.
type gatedRun struct {
	entered chan started
	release chan error // the value sent is the batch's error
}

func newGatedRun() *gatedRun {
	return &gatedRun{entered: make(chan started), release: make(chan error)}
}

func (g *gatedRun) run(ctx context.Context, queries [][]float32, w, k int) ([]float32, error) {
	out := make([]float32, len(queries))
	for i, q := range queries {
		out[i] = q[0]
	}
	g.entered <- started{firsts: append([]float32(nil), out...), w: w, ctx: ctx}
	if err := <-g.release; err != nil {
		return nil, err
	}
	return out, nil
}

// result is one Submit's return values.
type result struct {
	got  []float32
	info BatchInfo
	err  error
}

// member returns n one-component queries numbered v, v+1, ….
func member(v float32, n int) [][]float32 {
	m := make([][]float32, n)
	for i := range m {
		m[i] = []float32{v + float32(i)}
	}
	return m
}

// submitN runs one SubmitMember of member(v, n) on its own goroutine
// (a single query goes through Submit) and returns the channel its
// result arrives on.
func submitN(b *Batcher[float32], ctx context.Context, tenant string, lane Lane, weight int, v float32, n, w int) <-chan result {
	ch := make(chan result, 1)
	go func() {
		if n == 1 {
			got, info, err := b.Submit(ctx, tenant, lane, weight, []float32{v}, w, 4)
			ch <- result{[]float32{got}, info, err}
			return
		}
		got, info, err := b.SubmitMember(ctx, tenant, lane, weight, member(v, n), w, 4)
		ch <- result{got, info, err}
	}()
	return ch
}

// submit is submitN of a single query.
func submit(b *Batcher[float32], ctx context.Context, tenant string, lane Lane, weight int, v float32, w int) <-chan result {
	return submitN(b, ctx, tenant, lane, weight, v, 1, w)
}

// parkN submits member(v, n), which must queue (every slot is held),
// and returns once it is parked, so successive parks have a known
// order.
func parkN(t *testing.T, b *Batcher[float32], ctx context.Context, tenant string, lane Lane, weight int, v float32, n, w int) <-chan result {
	t.Helper()
	depth := b.QueueDepth()
	ch := submitN(b, ctx, tenant, lane, weight, v, n, w)
	for b.QueueDepth() == depth {
		select {
		case r := <-ch:
			t.Fatalf("submit of %v returned %+v instead of parking", v, r)
		default:
			runtime.Gosched()
		}
	}
	if d := b.QueueDepth(); d != depth+n {
		t.Fatalf("parking a member of %d moved the queue depth %d → %d", n, depth, d)
	}
	return ch
}

// park is parkN of a single query.
func park(t *testing.T, b *Batcher[float32], ctx context.Context, tenant string, lane Lane, weight int, v float32, w int) <-chan result {
	t.Helper()
	return parkN(t, b, ctx, tenant, lane, weight, v, 1, w)
}

// holdSlot occupies the single slot of a MaxConcurrent:1 batcher with a
// batch of one and returns that submit's result channel; the slot stays
// busy until the test sends on g.release.
func holdSlot(t *testing.T, b *Batcher[float32], g *gatedRun) <-chan result {
	t.Helper()
	ch := submit(b, context.Background(), "holder", Interactive, 1, -1, 8)
	if s := <-g.entered; len(s.firsts) != 1 || s.firsts[0] != -1 {
		t.Fatalf("holder batch %v, want [-1]", s.firsts)
	}
	return ch
}

// wantMember checks that member(v, n) got its own results back, in
// order, from a batch of size queries.
func wantMember(t *testing.T, ch <-chan result, v float32, n, size int) {
	t.Helper()
	r := <-ch
	ok := r.err == nil && len(r.got) == n && r.info.Size == size
	for i := 0; ok && i < n; i++ {
		ok = r.got[i] == v+float32(i)
	}
	if !ok {
		t.Errorf("submit %v×%d: got %v, batch size %d, err %v; want %v… in a batch of %d", v, n, r.got, r.info.Size, r.err, v, size)
	}
}

func wantOK(t *testing.T, ch <-chan result, v float32, size int) {
	t.Helper()
	wantMember(t, ch, v, 1, size)
}

// The work-conserving pin: with a slot free a query never waits for
// company. 200 sequential submits are 200 batches of one, and their
// summed queueing time is scheduling noise (a 1 ms coalesce window
// would make it at least 200 ms).
func TestBatcherIdleRunsEachSubmitAlone(t *testing.T) {
	batches := 0
	run := func(ctx context.Context, queries [][]float32, w, k int) ([]float32, error) {
		batches++ // sequential submits: one batch at a time
		return []float32{queries[0][0]}, nil
	}
	b := NewBatcher(run, BatcherOptions{})
	defer b.Drain()
	const n = 200
	var waited time.Duration
	for i := 0; i < n; i++ {
		got, info, err := b.Submit(context.Background(), "t", Interactive, 1, []float32{float32(i)}, 8, 4)
		if err != nil || got != float32(i) {
			t.Fatalf("submit %d: got %v, %v", i, got, err)
		}
		if info.Size != 1 {
			t.Fatalf("submit %d rode a batch of %d on an idle batcher", i, info.Size)
		}
		waited += info.Wait
	}
	if batches != n {
		t.Errorf("%d batches for %d sequential submits", batches, n)
	}
	if waited >= 100*time.Millisecond {
		t.Errorf("%d submits on an idle batcher queued for %v in total, want < 100ms", n, waited)
	}
}

// The default slot count is GOMAXPROCS: that many queries run at once,
// the next one parks.
func TestBatcherDefaultSlots(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{})
	slots := runtime.GOMAXPROCS(0)
	var chs []<-chan result
	for i := 0; i < slots; i++ {
		chs = append(chs, submit(b, context.Background(), "t", Interactive, 1, float32(i), 8))
		<-g.entered
	}
	chs = append(chs, park(t, b, context.Background(), "t", Interactive, 1, float32(slots), 8))
	for i := 0; i < slots; i++ {
		g.release <- nil
	}
	<-g.entered // the parked query inherits a freed slot
	g.release <- nil
	for i, ch := range chs {
		wantOK(t, ch, float32(i), 1)
	}
	b.Drain()
}

// Members that arrive while the slot is busy leave together when it
// frees: one batch of exactly N queries, split at MaxBatch but never
// inside a member, every submitter getting its own queries' results. A
// member larger than MaxBatch runs as a batch of its own.
func TestBatcherBacklogLeavesAsOneBatch(t *testing.T) {
	ones := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = 1
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		members []int // parked member sizes, in order
		want    []int // batch sizes in queries
	}{
		{"3", ones(3), []int{3}},
		{"4", ones(4), []int{4}},
		{"10", ones(10), []int{4, 4, 2}},
		{"never-split", []int{3, 2, 2}, []int{3, 4}},
		{"oversized-alone", []int{1, 6, 1}, []int{1, 6, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGatedRun()
			b := NewBatcher(g.run, BatcherOptions{MaxBatch: 4, MaxConcurrent: 1})
			holder := holdSlot(t, b, g)
			chs := make([]<-chan result, len(tc.members))
			for i, n := range tc.members {
				chs[i] = parkN(t, b, context.Background(), "t", Interactive, 1, float32(10*i), n, 8)
			}
			g.release <- nil
			wantOK(t, holder, -1, 1)
			next := 0
			for _, size := range tc.want {
				s := <-g.entered
				if len(s.firsts) != size {
					t.Fatalf("batch of %d (%v), want %d", len(s.firsts), s.firsts, size)
				}
				g.release <- nil
				for got := 0; got < size; next++ {
					wantMember(t, chs[next], float32(10*next), tc.members[next], size)
					got += tc.members[next]
				}
			}
			b.Drain()
			if d := b.QueueDepth(); d != 0 {
				t.Errorf("queue depth %d after drain", d)
			}
		})
	}
}

// Different (W, K) classes never share a batch, and a freed slot goes
// to the class whose head waiter parked first — not to whichever class
// map iteration yields. Two classes, either parking order, repeated so
// a random pick cannot pass by luck.
func TestBatcherSlotHandOffOrder(t *testing.T) {
	for round := 0; round < 16; round++ {
		first, second := 8, 9
		if round%2 == 1 {
			first, second = 9, 8
		}
		g := newGatedRun()
		b := NewBatcher(g.run, BatcherOptions{MaxConcurrent: 1})
		holder := holdSlot(t, b, g)
		bg := context.Background()
		chs := []<-chan result{
			park(t, b, bg, "t", Interactive, 1, 0, first),
			park(t, b, bg, "t", Interactive, 1, 1, second),
			park(t, b, bg, "t", Interactive, 1, 2, second),
			park(t, b, bg, "t", Interactive, 1, 3, first),
		}
		g.release <- nil
		wantOK(t, holder, -1, 1)
		for _, want := range []struct {
			w      int
			firsts [2]float32
		}{{first, [2]float32{0, 3}}, {second, [2]float32{1, 2}}} {
			s := <-g.entered
			if s.w != want.w || len(s.firsts) != 2 || [2]float32(s.firsts) != want.firsts {
				t.Fatalf("round %d: slot went to w=%d %v, want w=%d %v", round, s.w, s.firsts, want.w, want.firsts)
			}
			g.release <- nil
		}
		for i, ch := range chs {
			wantOK(t, ch, float32(i), 2)
		}
		b.Drain()
	}
}

// The QoS fairness pin: an interactive request that arrives behind a
// bulk backlog far longer than a batch rides the very next batch, at
// its head.
func TestBatcherInteractiveBeforeBulk(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{MaxBatch: 8, MaxConcurrent: 1})
	holder := holdSlot(t, b, g)
	bg := context.Background()
	var bulk []<-chan result
	for i := 0; i < 20; i++ {
		bulk = append(bulk, park(t, b, bg, "bulk", Bulk, 1, float32(100+i), 8))
	}
	live := park(t, b, bg, "live", Interactive, 1, 7, 8)
	g.release <- nil
	wantOK(t, holder, -1, 1)

	s := <-g.entered
	if len(s.firsts) != 8 || s.firsts[0] != 7 {
		t.Fatalf("first backlogged batch %v, want the interactive query then 7 bulk", s.firsts)
	}
	for i, f := range s.firsts[1:] {
		if f != float32(100+i) {
			t.Errorf("bulk position %d holds %v, want FIFO %v", i, f, 100+i)
		}
	}
	g.release <- nil
	wantOK(t, live, 7, 8)
	for _, size := range []int{8, 5} { // the other 13 bulk queries
		if s := <-g.entered; len(s.firsts) != size {
			t.Fatalf("bulk batch of %d, want %d", len(s.firsts), size)
		}
		g.release <- nil
	}
	for i, ch := range bulk {
		if r := <-ch; r.err != nil || len(r.got) != 1 || r.got[0] != float32(100+i) {
			t.Errorf("bulk %d: got %v, %v", i, r.got, r.err)
		}
	}
	b.Drain()
}

// Weighted-fair dequeue counts queries, not members: with two fully
// backlogged tenants of weights 3 and 1, a full batch holds a 3:1 mix
// of queries whether the light tenant sends single queries or members
// of two.
func TestBatcherWeightedFairShare(t *testing.T) {
	for _, light := range []int{1, 2} {
		t.Run(fmt.Sprintf("light-members-of-%d", light), func(t *testing.T) {
			g := newGatedRun()
			b := NewBatcher(g.run, BatcherOptions{MaxBatch: 8, MaxConcurrent: 1})
			holder := holdSlot(t, b, g)
			bg := context.Background()
			var chs []<-chan result
			for i := 0; i < 12; i++ {
				chs = append(chs,
					park(t, b, bg, "heavy", Bulk, 3, float32(i), 8),
					parkN(t, b, bg, "light", Bulk, 1, float32(100+light*i), light, 8))
			}
			g.release <- nil
			wantOK(t, holder, -1, 1)

			// Assembled with 12 members queued per tenant: the deficit
			// round-robin grants 3 and 1 queries a visit, so the weight-3
			// tenant gets 6 of the 8 places.
			s := <-g.entered
			heavy := 0
			for _, f := range s.firsts {
				if f < 100 {
					heavy++
				}
			}
			if len(s.firsts) != 8 || heavy != 6 {
				t.Errorf("first backlogged batch %v: %d heavy of %d, want 6 of 8", s.firsts, heavy, len(s.firsts))
			}
			g.release <- nil
			for left := 12 + 12*light - 8; left > 0; { // the rest of the backlog
				s := <-g.entered
				left -= len(s.firsts)
				g.release <- nil
			}
			for _, ch := range chs {
				if r := <-ch; r.err != nil {
					t.Errorf("submit: %v", r.err)
				}
			}
			b.Drain()
		})
	}
}

// A submitter that gives up while parked returns at once and is left
// out of the batch; the rest of the backlog is served.
func TestBatcherCancelWhileParked(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{MaxConcurrent: 1})
	holder := holdSlot(t, b, g)
	ctx, cancel := context.WithCancel(context.Background())
	gone := park(t, b, ctx, "t", Interactive, 1, 1, 8)
	stays := park(t, b, context.Background(), "t", Interactive, 1, 2, 8)
	cancel()
	if r := <-gone; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled submit returned %v, want context.Canceled", r.err)
	}
	g.release <- nil
	wantOK(t, holder, -1, 1)
	if s := <-g.entered; len(s.firsts) != 1 || s.firsts[0] != 2 {
		t.Fatalf("batch %v after a parked cancel, want [2]", s.firsts)
	}
	g.release <- nil
	wantOK(t, stays, 2, 1)
	b.Drain()
}

// The batch context is canceled only once every member has abandoned.
func TestBatcherAllAbandonedCancelsRun(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{MaxConcurrent: 1})
	holder := holdSlot(t, b, g)
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	a := park(t, b, ctxA, "t", Interactive, 1, 1, 8)
	bb := park(t, b, ctxB, "t", Interactive, 1, 2, 8)
	g.release <- nil
	wantOK(t, holder, -1, 1)

	s := <-g.entered
	cancelA()
	if r := <-a; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("first abandoner got %v", r.err)
	}
	if err := s.ctx.Err(); err != nil {
		t.Fatalf("batch context %v with one of two members still waiting", err)
	}
	cancelB()
	<-s.ctx.Done() // hangs (test timeout) if abandonment is not propagated
	if r := <-bb; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("second abandoner got %v", r.err)
	}
	g.release <- context.Canceled
	b.Drain()
}

// The deadline of the batch context is the latest member deadline, and
// it is only set when every member is bounded.
func TestBatcherDeadlinePropagation(t *testing.T) {
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{MaxConcurrent: 1})
	holder := holdSlot(t, b, g)
	near, cancelNear := context.WithTimeout(context.Background(), time.Hour)
	defer cancelNear()
	far, cancelFar := context.WithTimeout(context.Background(), 2*time.Hour)
	defer cancelFar()
	// Two classes: one all-bounded, one with an unbounded member.
	chs := []<-chan result{
		park(t, b, near, "t", Interactive, 1, 1, 8),
		park(t, b, far, "t", Interactive, 1, 2, 8),
		park(t, b, near, "t", Interactive, 1, 3, 9),
		park(t, b, context.Background(), "t", Interactive, 1, 4, 9),
	}
	g.release <- nil
	wantOK(t, holder, -1, 1)

	s := <-g.entered
	want, _ := far.Deadline()
	if d, ok := s.ctx.Deadline(); !ok || !d.Equal(want) {
		t.Errorf("bounded batch saw deadline %v ok=%v, want the latest member deadline %v", d, ok, want)
	}
	g.release <- nil
	s = <-g.entered
	if d, ok := s.ctx.Deadline(); ok {
		t.Errorf("batch with an unbounded member has deadline %v", d)
	}
	g.release <- nil
	for i, ch := range chs {
		wantOK(t, ch, float32(i+1), 2)
	}
	b.Drain()
}

// A run error reaches every member of the batch.
func TestBatcherRunErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{MaxConcurrent: 1})
	holder := holdSlot(t, b, g)
	var chs []<-chan result
	for i := 0; i < 4; i++ {
		chs = append(chs, park(t, b, context.Background(), "t", Interactive, 1, float32(i), 8))
	}
	g.release <- nil
	wantOK(t, holder, -1, 1)
	<-g.entered
	g.release <- boom
	for i, ch := range chs {
		if r := <-ch; !errors.Is(r.err, boom) {
			t.Errorf("member %d got %v, want boom", i, r.err)
		}
	}
	b.Drain()
}

// Close refuses new work but the parked backlog is still served; Drain
// returns only after the last batch has delivered, and nothing the
// batcher started outlives it. With coalescing off the same holds for
// a member running inline.
func TestBatcherCloseAndDrain(t *testing.T) {
	t.Run("coalescing", testCloseAndDrainCoalescing)
	t.Run("inline", testCloseAndDrainInline)
}

func testCloseAndDrainCoalescing(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGatedRun()
	b := NewBatcher(g.run, BatcherOptions{MaxBatch: 2, MaxConcurrent: 1})
	holder := holdSlot(t, b, g)
	var chs []<-chan result
	for i := 0; i < 3; i++ {
		chs = append(chs, park(t, b, context.Background(), "t", Interactive, 1, float32(i), 8))
	}
	b.Close()
	if _, _, err := b.Submit(context.Background(), "t", Interactive, 1, []float32{9}, 8, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
	drained := make(chan struct{})
	go func() { b.Drain(); close(drained) }()

	g.release <- nil
	wantOK(t, holder, -1, 1)
	for _, size := range []int{2, 1} {
		if s := <-g.entered; len(s.firsts) != size {
			t.Fatalf("parked batch of %d after Close, want %d", len(s.firsts), size)
		}
		select {
		case <-drained:
			t.Fatal("Drain returned while a batch was still blocked in run")
		default:
		}
		g.release <- nil
	}
	wantOK(t, chs[0], 0, 2)
	wantOK(t, chs[1], 1, 2)
	wantOK(t, chs[2], 2, 1)
	<-drained
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("queue depth %d after Drain", d)
	}
	// Every goroutine above has delivered its result; the exits
	// themselves may trail by a scheduling step.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before the batcher existed", runtime.NumGoroutine(), before)
		}
	}
}

// A run that panics on the caller's goroutine (net/http recovers a
// handler's panic) still frees its slot: the next submit runs, and
// Drain returns.
func TestBatcherPanickingRunFreesSlot(t *testing.T) {
	calls := 0
	run := func(ctx context.Context, queries [][]float32, w, k int) ([]float32, error) {
		if calls++; calls == 1 {
			panic("boom")
		}
		return []float32{queries[0][0]}, nil
	}
	b := NewBatcher(run, BatcherOptions{MaxConcurrent: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the run's panic did not reach the caller")
			}
		}()
		b.Submit(context.Background(), "t", Interactive, 1, []float32{1}, 8, 4)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got, _, err := b.Submit(ctx, "t", Interactive, 1, []float32{2}, 8, 4); err != nil || got != 2 {
		t.Fatalf("submit after a panicking run: %v, %v (slot leaked?)", got, err)
	}
	b.Drain()
}

// goid returns the calling goroutine's ID, read from its stack header
// ("goroutine 42 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// A negative MaxConcurrent runs each member inline: on the caller's
// goroutine, with the caller's context and query buffers, as a batch of
// its own and without a Flush. Drain still waits for it.
func testCloseAndDrainInline(t *testing.T) {
	type call struct {
		goid string
		ctx  context.Context
		q0   *float32
	}
	calls := make(chan call, 1)
	release := make(chan struct{})
	run := func(ctx context.Context, queries [][]float32, w, k int) ([]float32, error) {
		calls <- call{goid(), ctx, &queries[0][0]}
		<-release
		out := make([]float32, len(queries))
		for i, q := range queries {
			out[i] = q[0]
		}
		return out, nil
	}
	flushes := 0
	b := NewBatcher(run, BatcherOptions{MaxConcurrent: -1, Observer: Observer{Flush: func(int) { flushes++ }}})

	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "caller")
	m := member(5, 3)
	done := make(chan result, 1)
	caller := make(chan string, 1)
	go func() {
		caller <- goid()
		got, info, err := b.SubmitMember(ctx, "t", Interactive, 1, m, 8, 4)
		done <- result{got, info, err}
	}()
	c := <-calls
	if id := <-caller; c.goid != id {
		t.Errorf("inline run on goroutine %s, Submit called on %s", c.goid, id)
	}
	if c.ctx != ctx || c.q0 != &m[0][0] {
		t.Error("inline run got a copied context or query, want the caller's own")
	}
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("inline member parked: queue depth %d", d)
	}
	drained := make(chan struct{})
	go func() { b.Drain(); close(drained) }()
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); runtime.Gosched() {
		select {
		case <-drained:
			t.Fatal("Drain returned while an inline run was still in progress")
		default:
		}
	}
	close(release)
	<-drained
	wantMember(t, done, 5, 3, 3)
	if flushes != 0 {
		t.Errorf("%d Flush events for an inline run, want none", flushes)
	}
	if _, _, err := b.SubmitMember(ctx, "t", Interactive, 1, m, 8, 4); !errors.Is(err, ErrClosed) {
		t.Errorf("inline submit after Drain: %v, want ErrClosed", err)
	}
}

func TestParseLane(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Lane
		err  bool
	}{
		{"interactive", Interactive, false},
		{"", Interactive, false},
		{"bulk", Bulk, false},
		{"batch", Bulk, false},
		{"turbo", 0, true},
	} {
		got, err := ParseLane(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseLane(%q) = %v, %v", tc.in, got, err)
		}
	}
	if Interactive.String() != "interactive" || Bulk.String() != "bulk" {
		t.Error("Lane.String mismatch")
	}
}

func ExampleBatcher() {
	run := func(ctx context.Context, queries [][]float32, w, k int) ([]string, error) {
		out := make([]string, len(queries))
		for i := range queries {
			out[i] = fmt.Sprintf("w=%d k=%d q0=%g", w, k, queries[i][0])
		}
		return out, nil
	}
	b := NewBatcher(run, BatcherOptions{MaxBatch: 8})
	res, _, _ := b.SubmitMember(context.Background(), "tenant-a", Interactive, 1, [][]float32{{42}, {43}}, 16, 10)
	fmt.Println(res)
	// Output: [w=16 k=10 q0=42 w=16 k=10 q0=43]
}
