package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"cloudiq/internal/pageio"
)

// Blockmap maps logical page numbers to physical entries. Blockmap pages are
// organized as a radix tree and are themselves stored as pages in the owning
// dbspace; modifying a data page's entry dirties its leaf, and flushing a
// dirty node relocates it (never-write-twice on cloud dbspaces), which in
// turn dirties its parent — the versioning cascade of Figure 2 (H' → D' →
// A'). The location of the root after a flush is recorded in an identity
// object kept on strongly consistent storage.
type Blockmap struct {
	ds     Dbspace
	fanout int

	mu    sync.Mutex
	root  *bmNode
	pages uint64 // high-water logical page count
}

type bmNode struct {
	level    int // 0 = leaf
	dirty    bool
	stored   Entry // current physical location; zero if never flushed
	entries  []Entry
	children []*bmNode // inner nodes: lazily loaded child cache
}

func newNode(level, fanout int) *bmNode {
	n := &bmNode{level: level, entries: make([]Entry, fanout)}
	if level > 0 {
		n.children = make([]*bmNode, fanout)
	}
	return n
}

// MinFanout is the smallest supported tree fanout.
const MinFanout = 2

// NewBlockmap returns an empty blockmap whose pages will live in ds.
func NewBlockmap(ds Dbspace, fanout int) (*Blockmap, error) {
	if fanout < MinFanout {
		return nil, fmt.Errorf("core: blockmap fanout %d below minimum %d", fanout, MinFanout)
	}
	return &Blockmap{ds: ds, fanout: fanout, root: newNode(0, fanout)}, nil
}

// Identity records everything needed to reopen a blockmap: the root's
// location, the logical page high-water mark, and the fanout. Identity
// objects live in the system catalog on strongly consistent storage and are
// updated in place (§3.1).
type Identity struct {
	Root   Entry
	Pages  uint64
	Fanout uint32
	Levels uint32
}

// OpenBlockmap reopens a blockmap from its identity. Child pages load
// lazily on first access.
func OpenBlockmap(ds Dbspace, id Identity) (*Blockmap, error) {
	if id.Fanout < MinFanout {
		return nil, fmt.Errorf("core: identity fanout %d below minimum", id.Fanout)
	}
	bm := &Blockmap{ds: ds, fanout: int(id.Fanout), pages: id.Pages}
	root := newNode(int(id.Levels), int(id.Fanout))
	root.stored = id.Root
	if !id.Root.IsZero() {
		root.entries = nil // force load on first access
	}
	bm.root = root
	return bm, nil
}

// Identity returns the identity as of the last Flush. Calling it with
// unflushed changes returns the previous root.
func (b *Blockmap) Identity() Identity {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Identity{Root: b.root.stored, Pages: b.pages, Fanout: uint32(b.fanout), Levels: uint32(b.root.level)}
}

// Pages returns the logical page high-water mark.
func (b *Blockmap) Pages() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pages
}

// Dirty reports whether the tree has unflushed changes.
func (b *Blockmap) Dirty() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.root.dirty
}

// capacity of a subtree rooted at the given level, saturating at the top of
// the uint64 space so that growth terminates for any logical page number.
func (b *Blockmap) capacity(level int) uint64 {
	c := uint64(b.fanout)
	for i := 0; i < level; i++ {
		next := c * uint64(b.fanout)
		if next/uint64(b.fanout) != c {
			return ^uint64(0)
		}
		c = next
	}
	return c
}

// ensureLoaded populates a node's entries from storage if needed.
func (b *Blockmap) ensureLoaded(ctx context.Context, n *bmNode) error {
	if n.entries != nil {
		return nil
	}
	data, err := one(b.ds.ReadBatch(ctx, []Entry{n.stored}))
	if err != nil {
		return fmt.Errorf("core: load blockmap page %v: %w", n.stored, err)
	}
	level, entries, err := decodeNode(data, b.fanout)
	if err != nil {
		return err
	}
	if level != n.level {
		return fmt.Errorf("core: blockmap page %v has level %d, expected %d", n.stored, level, n.level)
	}
	n.entries = entries
	if n.level > 0 && n.children == nil {
		n.children = make([]*bmNode, b.fanout)
	}
	return nil
}

func encodeNode(level int, entries []Entry) []byte {
	buf := make([]byte, 8+EntrySize*len(entries))
	buf[0] = byte(level)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(entries)))
	for i, e := range entries {
		e.encode(buf[8+EntrySize*i:])
	}
	return buf
}

func decodeNode(data []byte, fanout int) (int, []Entry, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("core: blockmap page too short (%d bytes)", len(data))
	}
	level := int(data[0])
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n != fanout || len(data) < 8+EntrySize*n {
		return 0, nil, fmt.Errorf("core: blockmap page has %d entries in %d bytes, fanout %d", n, len(data), fanout)
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = decodeEntry(data[8+EntrySize*i:])
	}
	return level, entries, nil
}

// Set maps logical to e, growing the tree as needed, and returns the entry
// it replaced (zero if none). The replaced entry's extent belongs to the
// superseded page version; the caller records it with its transaction's RF
// bitmap when appropriate.
func (b *Blockmap) Set(ctx context.Context, logical uint64, e Entry) (Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for logical >= b.capacity(b.root.level) {
		// Grow by adding a level above the current root.
		oldRoot := b.root
		nr := newNode(oldRoot.level+1, b.fanout)
		nr.children[0] = oldRoot
		nr.entries[0] = oldRoot.stored
		nr.dirty = true
		b.root = nr
	}
	old, err := b.set(ctx, b.root, logical, e)
	if err != nil {
		return Entry{}, err
	}
	if logical+1 > b.pages {
		b.pages = logical + 1
	}
	return old, nil
}

func (b *Blockmap) set(ctx context.Context, n *bmNode, logical uint64, e Entry) (Entry, error) {
	if err := b.ensureLoaded(ctx, n); err != nil {
		return Entry{}, err
	}
	if n.level == 0 {
		old := n.entries[logical]
		n.entries[logical] = e
		n.dirty = true
		return old, nil
	}
	stride := b.capacity(n.level - 1)
	idx := logical / stride
	child := n.children[idx]
	if child == nil {
		child = newNode(n.level-1, b.fanout)
		if !n.entries[idx].IsZero() {
			child.stored = n.entries[idx]
			child.entries = nil // load lazily
			if child.level > 0 {
				child.children = make([]*bmNode, b.fanout)
			}
		}
		n.children[idx] = child
	}
	old, err := b.set(ctx, child, logical%stride, e)
	if err != nil {
		return Entry{}, err
	}
	n.dirty = true
	return old, nil
}

// Get returns the entry for logical, or the zero Entry if unmapped.
func (b *Blockmap) Get(ctx context.Context, logical uint64) (Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if logical >= b.capacity(b.root.level) {
		return Entry{}, nil
	}
	return b.get(ctx, b.root, logical)
}

func (b *Blockmap) get(ctx context.Context, n *bmNode, logical uint64) (Entry, error) {
	if err := b.ensureLoaded(ctx, n); err != nil {
		return Entry{}, err
	}
	if n.level == 0 {
		return n.entries[logical], nil
	}
	stride := b.capacity(n.level - 1)
	idx := logical / stride
	child := n.children[idx]
	if child == nil {
		if n.entries[idx].IsZero() {
			return Entry{}, nil
		}
		child = newNode(n.level-1, b.fanout)
		child.stored = n.entries[idx]
		child.entries = nil
		if child.level > 0 {
			child.children = make([]*bmNode, b.fanout)
		}
		n.children[idx] = child
	}
	return b.get(ctx, child, logical%stride)
}

// Delete unmaps logical and returns the replaced entry.
func (b *Blockmap) Delete(ctx context.Context, logical uint64) (Entry, error) {
	return b.Set(ctx, logical, Entry{})
}

// dirtyNode is one node awaiting flush, with the parent slot its fresh
// location must be installed into (nil parent for the root).
type dirtyNode struct {
	node   *bmNode
	parent *bmNode
	idx    int
}

// Flush writes every dirty node bottom-up, allocating a fresh location for
// each (the copy-on-write cascade), reporting superseded and fresh extents
// to sink, and returns the new identity. Blockmap page allocations and frees
// are reported through the same sink as data pages, so the transaction's
// RF/RB bitmaps capture the whole cascade.
//
// All dirty nodes of one level are submitted as a single WriteBatch: the
// dbspace pipeline masks per-object write latency on cloud dbspaces and
// coalesces adjacent runs on conventional ones, while sink notifications
// and tree mutations happen serially in tree order — the flush is
// deterministic, no LockedSink needed.
func (b *Blockmap) Flush(ctx context.Context, sink FlushSink) (Identity, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.root.dirty {
		return b.identityLocked(), nil
	}

	// Every ancestor of a dirty node is dirty (Set marks the whole path),
	// so a DFS over dirty nodes finds the complete cascade.
	levels := make([][]dirtyNode, b.root.level+1)
	var collect func(n, parent *bmNode, idx int)
	collect = func(n, parent *bmNode, idx int) {
		levels[n.level] = append(levels[n.level], dirtyNode{node: n, parent: parent, idx: idx})
		if n.level == 0 {
			return
		}
		for i, child := range n.children {
			if child != nil && child.dirty {
				collect(child, n, i)
			}
		}
	}
	collect(b.root, nil, 0)

	for level := 0; level <= b.root.level; level++ {
		batch := levels[level]
		if len(batch) == 0 {
			continue
		}
		pages := make([][]byte, len(batch))
		for i, dn := range batch {
			// Children of this node already flushed in the previous level
			// pass and installed their fresh entries.
			pages[i] = encodeNode(dn.node.level, dn.node.entries)
		}
		entries, err := b.ds.WriteBatch(ctx, pages, WriteThrough)
		// Successful items are installed even when siblings failed: their
		// allocations must reach the sink so a rollback can reclaim them.
		for i, itemErr := range pageio.ItemErrors(err, len(batch)) {
			if itemErr != nil {
				continue
			}
			n := batch[i].node
			if !n.stored.IsZero() {
				sink.NoteFreed(n.stored)
			}
			sink.NoteAllocated(entries[i])
			n.stored = entries[i]
			n.dirty = false
			if p := batch[i].parent; p != nil {
				p.entries[batch[i].idx] = entries[i]
			}
		}
		if err != nil {
			return Identity{}, fmt.Errorf("core: flush blockmap level %d: %w", level, err)
		}
	}
	return b.identityLocked(), nil
}

func (b *Blockmap) identityLocked() Identity {
	return Identity{Root: b.root.stored, Pages: b.pages, Fanout: uint32(b.fanout), Levels: uint32(b.root.level)}
}

// ForEachPhysical visits the physical entry of every mapped data page AND
// of every stored blockmap page (the tree itself). Dropping an object
// retires exactly this set of extents.
func (b *Blockmap) ForEachPhysical(ctx context.Context, fn func(e Entry) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.forEachPhysical(ctx, b.root, fn)
}

func (b *Blockmap) forEachPhysical(ctx context.Context, n *bmNode, fn func(Entry) error) error {
	if !n.stored.IsZero() {
		if err := fn(n.stored); err != nil {
			return err
		}
	}
	if err := b.ensureLoaded(ctx, n); err != nil {
		return err
	}
	if n.level == 0 {
		for _, e := range n.entries {
			if e.IsZero() {
				continue
			}
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range n.entries {
		child := n.children[i]
		if child == nil {
			if n.entries[i].IsZero() {
				continue
			}
			child = newNode(n.level-1, b.fanout)
			child.stored = n.entries[i]
			child.entries = nil
			if child.level > 0 {
				child.children = make([]*bmNode, b.fanout)
			}
			n.children[i] = child
		}
		if err := b.forEachPhysical(ctx, child, fn); err != nil {
			return err
		}
	}
	return nil
}

// ForEach visits every mapped logical page in ascending order. fn returning
// an error stops the walk.
func (b *Blockmap) ForEach(ctx context.Context, fn func(logical uint64, e Entry) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.forEach(ctx, b.root, 0, fn)
}

func (b *Blockmap) forEach(ctx context.Context, n *bmNode, base uint64, fn func(uint64, Entry) error) error {
	if err := b.ensureLoaded(ctx, n); err != nil {
		return err
	}
	if n.level == 0 {
		for i, e := range n.entries {
			if e.IsZero() {
				continue
			}
			if err := fn(base+uint64(i), e); err != nil {
				return err
			}
		}
		return nil
	}
	stride := b.capacity(n.level - 1)
	for i := range n.entries {
		child := n.children[i]
		if child == nil {
			if n.entries[i].IsZero() {
				continue
			}
			child = newNode(n.level-1, b.fanout)
			child.stored = n.entries[i]
			child.entries = nil
			if child.level > 0 {
				child.children = make([]*bmNode, b.fanout)
			}
			n.children[i] = child
		}
		if err := b.forEach(ctx, child, base+uint64(i)*stride, fn); err != nil {
			return err
		}
	}
	return nil
}
