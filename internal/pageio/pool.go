package pageio

import (
	"context"
	"sync"
	"sync/atomic"
)

// WorkPool bounds the fan-out of batch operations. It holds no long-lived
// goroutines: each Do call spawns at most Size workers that claim task
// indices from a shared counter, so a size-1 pool executes tasks strictly in
// index order (the property deterministic crash simulations rely on).
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
// error slice. Workers check ctx before claiming each task; once the context
// is cancelled no further tasks start and every task that never ran reports
// ctx.Err(). Tasks that did run keep their own result, so a caller joining
// the slice sees every distinct failure, not just the race winner.
func (p *WorkPool) Do(ctx context.Context, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	workers := p.Size()
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	run := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//lint:ignore detclosure workers join via wg.Wait before Do returns, and each claimed index writes its own errs slot, so the result is independent of interleaving
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		claimed := int(next.Load())
		if claimed > n {
			claimed = n
		}
		for i := claimed; i < n; i++ {
			errs[i] = err
		}
	}
	return errs
}

// readEach is the ReadBatch of every stage whose batch is its single-page
// operation run per item: it calls h.ReadPage for each ref on pool (nil =
// sequential, in order) and returns one slice per ref, nil for failed
// items, with Do's cancellation.
func readEach(ctx context.Context, pool *WorkPool, h Handler, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	errs := pool.Do(ctx, len(refs), func(i int) error {
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
	return batchErr(pool.Do(ctx, len(reqs), func(i int) error {
		return h.WritePage(ctx, reqs[i])
	}))
}
