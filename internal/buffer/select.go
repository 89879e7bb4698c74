package buffer

import (
	"context"
	"errors"
	"fmt"

	"cloudiq/internal/core"
	"cloudiq/internal/objstore"
	"cloudiq/internal/trace"
)

// ErrNoPushdown reports that this object cannot serve the request via the
// store's compute endpoint: the dbspace has no select capability, or a
// requested page is dirty in the buffer cache (the store image would be
// stale). Callers fall back to plain reads.
var ErrNoPushdown = errors.New("buffer: pushdown unavailable")

// NamedPage pairs a pushdown-plan column name with the logical page that
// stores the column's encoded segment.
type NamedPage struct {
	Name    string
	Logical uint64
}

// selectDbspace is the pushdown capability of a dbspace (CloudDbspace
// implements it; conventional dbspaces do not).
type selectDbspace interface {
	Select(ctx context.Context, cols []core.SelectCol, plan objstore.SelectPlan) (*objstore.SelectResult, error)
}

// Select evaluates plan store-side against the stored images of the given
// pages, bypassing the page cache in both directions: no cached bytes are
// consulted (coherence is preserved by refusing pushdown while any requested
// page is dirty) and no result bytes are installed (select results are
// derived, filtered data — caching them would poison later full reads).
//
// The cache-bypass is safe for committed data because of never-write-twice:
// a page that has an entry in the blockmap has exactly one immutable stored
// version, identical to what a cache miss would load. Pages born in the
// cache but not yet flushed have no blockmap entry and are rejected here.
func (o *Object) Select(ctx context.Context, pages []NamedPage, plan objstore.SelectPlan) (*objstore.SelectResult, error) {
	sd, ok := o.ds.(selectDbspace)
	if !ok {
		return nil, fmt.Errorf("%w: dbspace %s has no compute endpoint", ErrNoPushdown, o.ds.Name())
	}
	o.mu.Lock()
	for _, pg := range pages {
		if _, dirty := o.dirty[pg.Logical]; dirty {
			o.mu.Unlock()
			return nil, fmt.Errorf("%w: page %d is dirty in cache", ErrNoPushdown, pg.Logical)
		}
	}
	o.mu.Unlock()

	cols := make([]core.SelectCol, len(pages))
	for i, pg := range pages {
		entry, err := o.bm.Get(ctx, pg.Logical)
		if err != nil {
			return nil, err
		}
		if entry.IsZero() {
			return nil, fmt.Errorf("%w: object %d has no stored page %d", ErrNoPushdown, o.id, pg.Logical)
		}
		cols[i] = core.SelectCol{Name: pg.Name, E: entry}
	}

	sctx, sp := trace.Start(ctx, "buffer.select", trace.Int("pages", int64(len(pages))))
	res, err := sd.Select(sctx, cols, plan)
	if sp != nil && res != nil {
		sp.AddInt("scanned", res.ScannedBytes)
		sp.AddInt("bytes", res.ReturnedBytes)
	}
	if err != nil {
		if sp != nil {
			sp.SetAttr("err", err.Error())
		}
		sp.End()
		return nil, err
	}
	sp.End()
	return res, nil
}
