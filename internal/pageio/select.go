package pageio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cloudiq/internal/objstore"
)

// ErrSelectUnsupported reports that a pipeline (or its terminal) has no
// store-side compute capability: callers fall back to plain page reads.
// Deliberately NOT retryable — an incapable pipeline stays incapable.
var ErrSelectUnsupported = errors.New("pageio: select not supported by this pipeline")

// Selectable is the optional pushdown capability of a Handler. Stages that
// can forward a select implement it: the store adapter (when its store is an
// objstore.Selector) and the middlewares of a cloud pipeline — Trace, Meter
// and Retry. Coalesce does not (it merges block extents, and a block pipeline
// is never a select pipeline), nor do cache terminals — a select must bypass
// page-granularity caching entirely, so select pipelines are built without
// them (see core.NewCloud).
type Selectable interface {
	Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error)
}

// Select forwards req through h if the pipeline supports pushdown, and
// returns ErrSelectUnsupported otherwise.
func Select(h Handler, ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	if s, ok := h.(Selectable); ok {
		return s.Select(ctx, req)
	}
	return nil, ErrSelectUnsupported
}

// Select on the store adapter forwards to the store's compute endpoint.
func (h *storeHandler) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	sel, ok := h.store.(objstore.Selector)
	if !ok {
		return nil, ErrSelectUnsupported
	}
	return sel.Select(ctx, req)
}

// Select on the retry middleware applies the read policy: not-yet-visible
// column objects (eventual consistency) are retried with the same capped
// backoff as plain reads, while plan rejections and injected select faults
// surface immediately so the caller can fall back.
func (r *retry) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	delay := r.p.Delay
	var err error
	var slept time.Duration
	attempts := 0
	for attempt := 0; attempt < r.p.ReadAttempts; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			slept += delay
			delay = r.backoff(delay)
		}
		attempts++
		var res *objstore.SelectResult
		res, err = Select(r.next, ctx, req)
		if err == nil {
			noteRetries(ctx, attempts, slept)
			return res, nil
		}
		if ctxAborted(err) || errors.Is(err, ErrSelectUnsupported) || !retryRead(err) {
			return nil, err
		}
	}
	noteRetries(ctx, attempts, slept)
	if r.p.ReadAttempts == 1 {
		return nil, err
	}
	return nil, fmt.Errorf("%w: select %d cols after %d attempts: %w",
		ErrExhausted, len(req.Cols), r.p.ReadAttempts, err)
}

// Select on the meter records the operation in the layer's select class:
// items counts the column objects examined, bytes the result bytes that
// actually crossed the stage.
func (m *meter) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	start := m.now()
	res, err := Select(m.next, ctx, req)
	var nbytes int
	if res != nil {
		nbytes = int(res.ReturnedBytes)
	}
	m.stats.sel.record(m.now().Sub(start), len(req.Cols), errCount(err), nbytes)
	return res, err
}

// Select on the tracer opens a pageio.select span carrying the scanned /
// returned byte asymmetry pushdown exists to create.
func (h *spanner) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	ctx, sp := h.start(ctx, "pageio.select")
	sp.AddInt("items", int64(len(req.Cols)))
	res, err := Select(h.next, ctx, req)
	if sp != nil && res != nil {
		sp.AddInt("scanned", res.ScannedBytes)
		sp.AddInt("bytes", res.ReturnedBytes)
	}
	finish(sp, err)
	return res, err
}
