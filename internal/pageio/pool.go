package pageio

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cloudiq/internal/iomodel"
)

// WorkPool bounds the fan-out of batch operations. It holds no long-lived
// goroutines: each Do call starts at most Size workers (through Go) that
// claim task indices from a shared counter, so a size-1 pool executes tasks
// strictly in index order (the property deterministic crash simulations rely
// on).
//
// A nil *WorkPool is valid and behaves as a pool of size 1.
type WorkPool struct {
	size int
}

// NewPool returns a pool running at most n concurrent tasks per Do call.
func NewPool(n int) *WorkPool {
	if n < 1 {
		n = 1
	}
	return &WorkPool{size: n}
}

// Size reports the concurrency bound (1 for a nil pool).
func (p *WorkPool) Size() int {
	if p == nil || p.size < 1 {
		return 1
	}
	return p.size
}

// Do runs fn(0) .. fn(n-1) on up to Size workers and returns the positional
// error slice. Workers check ctx before running each task; once the context
// is cancelled no further tasks start and every task that never ran reports
// ctx.Err(). Tasks that did run keep their own result, so a caller joining
// the slice sees every distinct failure, not just the race winner. When ctx
// carries a modelled-I/O activity (iomodel), worker w runs tasks w,
// w+workers, w+2·workers, … in order on its own fork of ctx's clock, passed
// to fn, so a task's modelled start never depends on which goroutine ran
// first; Do returns with ctx's clock at the latest worker's.
func (p *WorkPool) Do(ctx context.Context, n int, fn func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	workers := p.Size()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = fn(ctx, i)
		}
		return errs
	}
	// claim hands worker w its j-th task: the next unclaimed one, or under
	// an activity the j-th of its own stride.
	var next atomic.Int64
	claim := func(w, j int) int { return int(next.Add(1)) - 1 }
	var lanes []context.Context // each worker's clock, under an activity
	if iomodel.Active(ctx) {
		claim = func(w, j int) int { return w + j*workers }
		lanes = make([]context.Context, workers)
		for w := range lanes {
			lanes[w] = iomodel.Fork(ctx)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		wctx := ctx
		if lanes != nil {
			wctx = lanes[w]
		}
		//lint:ignore detclosure workers join via wg.Wait before Do returns, and each claimed index writes its own errs slot, so the result is independent of interleaving
		Go(func() {
			defer wg.Done()
			for j := 0; ; j++ {
				i := claim(w, j)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(wctx, i)
			}
		})
	}
	wg.Wait()
	for _, l := range lanes {
		iomodel.Join(ctx, l)
	}
	return errs
}

// sweepPeriod is how often the sweeper retires parked workers: one parked
// for a whole period exits, so an idle process is back to its base goroutine
// count within two periods.
const sweepPeriod = 100 * time.Millisecond

// workers is the process's set of parked goroutines. idle is a stack in
// park order, so Go reuses the warmest stack first and the sweeper retires
// from the bottom.
var workers struct {
	mu       sync.Mutex
	idle     []*worker
	gen      uint64 // sweep generation, advanced once per period
	sweeping bool   // the sweeper runs
	started  int64  // workers ever started, for tests
}

// worker is one worker goroutine's mailbox: task hands it its next function
// (one at a time, so the one-slot buffer never blocks a sender), and closing
// it retires the worker.
type worker struct {
	task chan func()
	gen  uint64 // the generation it parked in
}

// Go runs fn on a parked worker goroutine if one is idle, and on a new one
// otherwise. It never blocks and bounds nothing: each caller keeps its own
// concurrency bound. After fn returns the worker parks again, so the next
// task runs on the stack this one grew instead of growing a fresh one.
func Go(fn func()) {
	workers.mu.Lock()
	if n := len(workers.idle); n > 0 {
		w := workers.idle[n-1]
		workers.idle[n-1] = nil
		workers.idle = workers.idle[:n-1]
		workers.mu.Unlock()
		w.task <- fn
		return
	}
	workers.started++
	workers.mu.Unlock()
	go work(fn)
}

// work is a worker goroutine: it runs fn, parks, and runs what Go hands it
// next until the sweeper retires it.
func work(fn func()) {
	w := &worker{task: make(chan func(), 1)}
	for ok := true; ok; fn, ok = <-w.task {
		fn()
		// fn's slot stays on the parked stack: clear it, or the last task's
		// captures (pages, batches) stay reachable until the next task.
		fn = nil
		park(w)
	}
}

// park pushes w on the idle stack and starts the sweeper if none runs.
func park(w *worker) {
	workers.mu.Lock()
	w.gen = workers.gen
	workers.idle = append(workers.idle, w)
	if !workers.sweeping {
		workers.sweeping = true
		go sweep()
	}
	workers.mu.Unlock()
}

// sweep advances the generation once per period and retires every worker
// that stayed parked for a whole period, until none is parked. One sleeping
// sweeper, rather than an idle timer armed on every park, keeps clock reads
// off the task path.
func sweep() {
	for {
		time.Sleep(sweepPeriod)
		workers.mu.Lock()
		workers.gen++
		// Parked before the previous tick: idle for a whole period. The
		// stack is in park order, so they are a prefix.
		old := 0
		for old < len(workers.idle) && workers.idle[old].gen+2 <= workers.gen {
			close(workers.idle[old].task)
			old++
		}
		n := copy(workers.idle, workers.idle[old:])
		clear(workers.idle[n:])
		workers.idle = workers.idle[:n]
		if n == 0 {
			workers.sweeping = false
			workers.mu.Unlock()
			return
		}
		workers.mu.Unlock()
	}
}

// readEach is the ReadBatch of every stage whose batch is its single-page
// operation run per item: it calls h.ReadPage for each ref on pool (nil =
// sequential, in order) and returns one slice per ref, nil for failed
// items, with Do's cancellation.
func readEach(ctx context.Context, pool *WorkPool, h Handler, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	errs := pool.Do(ctx, len(refs), func(ctx context.Context, i int) error {
		data, err := h.ReadPage(ctx, refs[i])
		if err != nil {
			return err
		}
		out[i] = data
		return nil
	})
	return out, batchErr(errs)
}

// writeEach is readEach's WriteBatch counterpart, calling h.WritePage.
func writeEach(ctx context.Context, pool *WorkPool, h Handler, reqs []WriteReq) error {
	return batchErr(pool.Do(ctx, len(reqs), func(ctx context.Context, i int) error {
		return h.WritePage(ctx, reqs[i])
	}))
}
