package keygen

import (
	"context"
	"fmt"
	"sync"

	"cloudiq/internal/rfrb"
)

// AllocFunc requests a key range of size n for the client's node. Locally it
// is a direct call into the Generator (the coordinator "does not need to
// make an RPC call on self"); on secondary nodes it is an RPC.
type AllocFunc func(ctx context.Context, n uint64) (rfrb.Range, error)

// Client is the per-node key cache. When the cached range is exhausted it
// requests a new one, adapting the request size to the node's consumption
// rate: needing another refill at all doubles the next request (up to
// MaxRangeSize). Client is safe for concurrent use.
type Client struct {
	alloc AllocFunc

	mu        sync.Mutex
	cur       rfrb.Range // [cur.Start, cur.End) remaining cached keys
	rangeSize uint64
	refills   int64
	handedOut int64
}

// NewClient returns a Client drawing ranges through alloc.
func NewClient(alloc AllocFunc) *Client {
	return &Client{alloc: alloc, rangeSize: DefaultRangeSize}
}

// Discard drops the cached key range. The keys are burned — never handed
// out again — which a point-in-time restore relies on: everything allocated
// before the restore is scheduled for deletion when its retention ends, so
// vending those keys to new writes would eventually delete live pages.
func (c *Client) Discard() {
	c.mu.Lock()
	c.cur = rfrb.Range{}
	c.mu.Unlock()
}

// NextKey returns the next unique object key, refilling the cache as needed.
func (c *Client) NextKey(ctx context.Context) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur.Start >= c.cur.End {
		if err := c.refillLocked(ctx); err != nil {
			return 0, err
		}
	}
	k := c.cur.Start
	c.cur.Start++
	c.handedOut++
	return k, nil
}

func (c *Client) refillLocked(ctx context.Context) error {
	// Load-adaptive sizing: consuming a full range quickly (i.e. needing
	// another refill at all) doubles the request, bounded by MaxRangeSize.
	// The first refill uses the default.
	if c.refills > 0 && c.rangeSize < MaxRangeSize {
		c.rangeSize *= 2
	}
	r, err := c.alloc(ctx, c.rangeSize)
	if err != nil {
		return fmt.Errorf("keygen: refill: %w", err)
	}
	if r.Len() == 0 {
		return fmt.Errorf("keygen: allocator returned empty range")
	}
	c.cur = r
	c.refills++
	return nil
}

// Stats reports refill RPCs issued and keys handed out, for the key-range
// ablation bench.
func (c *Client) Stats() (refills, keys int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refills, c.handedOut
}
