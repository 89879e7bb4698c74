package pageio

import "context"

// CacheLayer is the surface a caching store (the OCM) exposes to the
// pipeline: reads consult the cache and fall through to the backing store on
// miss, write-back stages locally and uploads asynchronously, write-through
// is durable on return.
type CacheLayer interface {
	Get(ctx context.Context, key string) ([]byte, error)
	PutBack(ctx context.Context, key string, data []byte) error
	PutThrough(ctx context.Context, key string, data []byte) error
	Delete(ctx context.Context, key string) error
}

// NewCache adapts a CacheLayer into a pipeline terminal. A WriteReq with
// Async set routes to PutBack (the OCM's write-back queue); synchronous
// writes route to PutThrough. Batch operations run item-by-item: the
// parallelism for cloud batches lives in the Retry stage above, and PutBack
// is an in-memory staging step that needs none.
func NewCache(c CacheLayer) Handler {
	return &cacheHandler{cache: c}
}

type cacheHandler struct {
	cache CacheLayer
}

func (h *cacheHandler) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	return h.cache.Get(ctx, ref.Key)
}

func (h *cacheHandler) WritePage(ctx context.Context, req WriteReq) error {
	if req.Async {
		return h.cache.PutBack(ctx, req.Ref.Key, req.Data)
	}
	return h.cache.PutThrough(ctx, req.Ref.Key, req.Data)
}

func (h *cacheHandler) Delete(ctx context.Context, ref Ref) error {
	return h.cache.Delete(ctx, ref.Key)
}

func (h *cacheHandler) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	return readEach(ctx, nil, h, refs)
}

func (h *cacheHandler) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	return writeEach(ctx, nil, h, reqs)
}
