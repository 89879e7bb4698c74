// Package keygen implements the Object Key Generator of §3.2. The
// coordinator hands out monotonically increasing ranges of 64-bit object
// keys from the reserved range [2^63, 2^64); each node caches its range
// locally and consumes keys from it without further coordination. Every
// allocation is logged so that after a coordinator crash both the maximum
// allocated key and the active sets (ranges outstanding at secondary nodes)
// can be recovered, and so that the ranges of crashed writers can be
// garbage collected (§3.3, Table 1).
package keygen

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

// ErrExhausted is returned when the reserved key space is exhausted. With
// 2^63 keys this cannot happen in practice (the paper estimates 1.4 million
// years at 20 nodes × 10,000 keys/s), but the arithmetic is still guarded.
var ErrExhausted = errors.New("keygen: reserved key range exhausted")

// DefaultRangeSize is the initial number of keys requested per RPC.
const DefaultRangeSize = 256

// MaxRangeSize caps adaptive growth of the per-node range size.
const MaxRangeSize = 1 << 16

// Generator is the coordinator-side allocator. It is safe for concurrent use.
type Generator struct {
	log *wal.Log // may be nil (e.g. inside recovery replay)

	mu     sync.Mutex
	next   uint64
	active map[string]*rfrb.Bitmap // node -> outstanding (uncommitted) ranges
}

// NewGenerator returns a Generator starting at the base of the reserved
// range. log may be nil for tests; production engines pass the coordinator's
// transaction log so allocations survive crashes.
func NewGenerator(log *wal.Log) *Generator {
	return &Generator{
		log:    log,
		next:   rfrb.CloudKeyBase,
		active: make(map[string]*rfrb.Bitmap),
	}
}

// AllocPayload encodes a RecAlloc record: the node name, then the range's
// start and end.
func AllocPayload(node string, r rfrb.Range) []byte {
	b := wal.AppendString16(make([]byte, 0, 18+len(node)), node)
	b = binary.LittleEndian.AppendUint64(b, r.Start)
	return binary.LittleEndian.AppendUint64(b, r.End)
}

// ParseAllocPayload decodes a RecAlloc record.
func ParseAllocPayload(p []byte) (node string, r rfrb.Range, err error) {
	d := wal.NewReader(p)
	node, r = d.String16(), rfrb.Range{Start: d.U64(), End: d.U64()}
	if err := d.End(); err != nil {
		return "", rfrb.Range{}, fmt.Errorf("keygen: alloc payload: %w", err)
	}
	return node, r, nil
}

// Allocate hands out the next n keys to node, durably logging the event
// before returning (the paper runs this inside a coordinator transaction:
// the largest allocated key is recorded in the transaction log and the
// active-set structure is updated before the range is returned).
func (g *Generator) Allocate(ctx context.Context, node string, n uint64) (rfrb.Range, error) {
	if n == 0 {
		return rfrb.Range{}, fmt.Errorf("keygen: zero-length allocation")
	}
	g.mu.Lock()
	if g.next+n < g.next { // overflow of the uint64 space
		g.mu.Unlock()
		return rfrb.Range{}, ErrExhausted
	}
	r := rfrb.Range{Start: g.next, End: g.next + n}
	g.next = r.End
	g.activeFor(node).AddRange(r)
	g.mu.Unlock()

	if g.log != nil {
		if _, err := g.log.Append(ctx, wal.RecAlloc, AllocPayload(node, r)); err != nil {
			// The allocation is already reflected in memory; the keys are
			// simply burned (never handed out again), which is safe under
			// the never-reuse invariant.
			return rfrb.Range{}, fmt.Errorf("keygen: log allocation: %w", err)
		}
	}
	return r, nil
}

func (g *Generator) activeFor(node string) *rfrb.Bitmap {
	b, ok := g.active[node]
	if !ok {
		b = &rfrb.Bitmap{}
		g.active[node] = b
	}
	return b
}

// OnCommit removes the cloud-key ranges consumed by a committed transaction
// from the node's active set: committed keys no longer need tracking because
// their pages are reachable from the blockmap and will be garbage collected
// through the normal RF/RB path. Rollbacks deliberately do NOT call this —
// the paper avoids that coordinator round trip and instead re-polls the
// ranges if the writer later restarts (Table 1, clock 130).
func (g *Generator) OnCommit(node string, consumed *rfrb.Bitmap) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.active[node]
	if !ok {
		return
	}
	for _, r := range consumed.CloudRanges() {
		b.Remove(r.Start, r.End)
	}
	if b.Empty() {
		delete(g.active, node)
	}
}

// ActiveSet returns the outstanding ranges for node (empty if none).
func (g *Generator) ActiveSet(node string) []rfrb.Range {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.active[node]
	if !ok {
		return nil
	}
	return b.Ranges()
}

// Nodes returns the nodes that currently have outstanding ranges.
func (g *Generator) Nodes() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	nodes := make([]string, 0, len(g.active))
	for n := range g.active {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// ReleaseNode atomically returns and clears the outstanding ranges for node.
// The caller (the coordinator's restart-GC path) polls every key in the
// returned ranges against the object store and deletes what exists.
func (g *Generator) ReleaseNode(node string) []rfrb.Range {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.active[node]
	if !ok {
		return nil
	}
	delete(g.active, node)
	return b.Ranges()
}

// MaxAllocated returns the exclusive upper bound of all allocations so far
// (the next key that would be handed out).
func (g *Generator) MaxAllocated() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}

// --- checkpoint / recovery ---

// Checkpoint is the generator state a checkpoint record carries: the next
// key to hand out and the active set of every node that has one.
type Checkpoint struct {
	Next   uint64
	Active map[string]*rfrb.Bitmap
}

// Checkpoint returns a copy of the generator state.
func (g *Generator) Checkpoint() *Checkpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := &Checkpoint{Next: g.next, Active: make(map[string]*rfrb.Bitmap, len(g.active))}
	for node, b := range g.active {
		c.Active[node] = b.Clone()
	}
	return c
}

// Marshal encodes c: the next key, the node count, then each node's name
// and active-set image in name order, so the bytes are a pure function of
// the state and not of map iteration order.
func (c *Checkpoint) Marshal() []byte {
	b := binary.LittleEndian.AppendUint64(nil, c.Next)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Active)))
	for _, node := range slices.Sorted(maps.Keys(c.Active)) {
		b = wal.AppendBytes32(wal.AppendString16(b, node), c.Active[node].Marshal())
	}
	return b
}

// ParseCheckpoint decodes Marshal output, dropping empty active sets.
func ParseCheckpoint(p []byte) (*Checkpoint, error) {
	d := wal.NewReader(p)
	c := &Checkpoint{Next: d.U64(), Active: map[string]*rfrb.Bitmap{}}
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		node, set := d.String16(), wal.Decode32(&d, rfrb.Unmarshal)
		if set != nil && !set.Empty() {
			c.Active[node] = set
		}
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("keygen: checkpoint payload: %w", err)
	}
	return c, nil
}

// Restore replaces the generator state with c, which it takes over.
func (g *Generator) Restore(c *Checkpoint) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next, g.active = c.Next, c.Active
}

// ApplyAlloc replays a RecAlloc record during crash recovery: the active set
// is reconstructed and the maximum key advanced (Table 1, steps 2–3).
func (g *Generator) ApplyAlloc(node string, r rfrb.Range) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.activeFor(node).AddRange(r)
	if r.End > g.next {
		g.next = r.End
	}
}
