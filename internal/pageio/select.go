package pageio

import (
	"context"
	"errors"
	"fmt"

	"cloudiq/internal/objstore"
)

// ErrSelectUnsupported reports that a pipeline (or its terminal) has no
// store-side compute capability: callers fall back to plain page reads.
// Deliberately NOT retryable — an incapable pipeline stays incapable.
var ErrSelectUnsupported = errors.New("pageio: select not supported by this pipeline")

// Selectable is the optional pushdown capability of a Handler. Stages that
// can forward a select implement it: the store adapter (when its store is an
// objstore.Selector) and the middlewares of a cloud pipeline — Meter and
// Retry. Coalesce does not (it merges block extents, and a block pipeline
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
// column objects (eventual consistency) are retried like plain reads, while plan rejections, ErrSelectUnsupported and
// injected select faults surface immediately so the caller can fall back.
func (r *retry) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	var res *objstore.SelectResult
	err := r.attempt(ctx, r.p.ReadAttempts, retryRead,
		func() string { return fmt.Sprintf("select %d cols", len(req.Cols)) },
		func() (err error) {
			res, err = Select(r.next, ctx, req)
			return err
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Select on the meter opens a pageio.select span carrying the scanned /
// returned byte asymmetry pushdown exists to create, and records the
// operation in the layer's select class: items counts the column objects
// examined, bytes the result bytes that actually crossed the stage.
func (m *meter) Select(ctx context.Context, req objstore.SelectRequest) (*objstore.SelectResult, error) {
	ctx, sp, start := m.begin(ctx, "pageio.select")
	sp.AddInt("items", int64(len(req.Cols)))
	res, err := Select(m.next, ctx, req)
	var nbytes int
	if res != nil {
		sp.AddInt("scanned", res.ScannedBytes)
		sp.AddInt("bytes", res.ReturnedBytes)
		nbytes = int(res.ReturnedBytes)
	}
	m.end(sp, err, opSelect, start, len(req.Cols), failedItems(err, 1), nbytes)
	return res, err
}
