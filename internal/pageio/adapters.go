package pageio

import (
	"context"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/objstore"
)

// NewStore adapts an object store to the Handler interface. Batch operations
// run item by item: the fan-out for cloud batches lives in the Retry stage
// above (Policy.Pool). The adapter adds no retry or metering of its own;
// stack Retry and Meter around it.
func NewStore(s objstore.Store) Handler {
	return &storeHandler{store: s}
}

type storeHandler struct {
	store objstore.Store
}

func (h *storeHandler) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	return h.store.Get(ctx, ref.Key)
}

func (h *storeHandler) WritePage(ctx context.Context, req WriteReq) error {
	return h.store.Put(ctx, req.Ref.Key, req.Data)
}

func (h *storeHandler) Delete(ctx context.Context, ref Ref) error {
	return h.store.Delete(ctx, ref.Key)
}

func (h *storeHandler) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	return readEach(ctx, nil, h, refs)
}

func (h *storeHandler) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	return writeEach(ctx, nil, h, reqs)
}

// NewDevice adapts a block device to the Handler interface. Refs carry byte
// offsets; ReadPage allocates a fresh Ref.Len-sized buffer per page. Batch
// operations fan out through pool (nil pool = sequential), overlapping
// per-op device latency the way the engine's old parallel flush workers
// did. Delete is a no-op: block reclamation is the free-list's job, not the
// device's.
func NewDevice(d blockdev.Device, pool *WorkPool) Handler {
	return &deviceHandler{dev: d, pool: pool}
}

type deviceHandler struct {
	dev  blockdev.Device
	pool *WorkPool
}

func (h *deviceHandler) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	buf := make([]byte, ref.Len)
	if err := h.dev.ReadAt(ctx, buf, ref.Off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (h *deviceHandler) WritePage(ctx context.Context, req WriteReq) error {
	return h.dev.WriteAt(ctx, req.Data, req.Ref.Off)
}

func (h *deviceHandler) Delete(ctx context.Context, ref Ref) error {
	return nil
}

func (h *deviceHandler) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	return readEach(ctx, h.pool, h, refs)
}

func (h *deviceHandler) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	return writeEach(ctx, h.pool, h, reqs)
}
