// Package freelist implements the bitmap allocator that tracks block usage
// on conventional (block-device) dbspaces. A set bit means the block is in
// use. Cloud dbspaces do not use a freelist — that reduced role is one of
// the paper's simplifications (§3, §5) and is what makes the system dbspace
// small enough for near-instantaneous snapshots.
package freelist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrNoSpace is returned when a contiguous run of the requested length
// cannot be found.
var ErrNoSpace = errors.New("freelist: no contiguous free run")

// List is a bitmap of block allocation state. It is safe for concurrent use.
type List struct {
	mu     sync.Mutex
	words  []uint64
	blocks uint64 // total block count
	inUse  uint64
	hint   uint64 // next block to start scanning from
}

// New returns a freelist covering the given number of blocks, all free.
func New(blocks uint64) *List {
	return &List{
		words:  make([]uint64, wordsFor(blocks)),
		blocks: blocks,
	}
}

// wordsFor is the bitmap length for blocks: (blocks+63)/64, computed without
// wrapping when blocks is within 63 of 2^64.
func wordsFor(blocks uint64) uint64 {
	n := blocks / 64
	if blocks%64 != 0 {
		n++
	}
	return n
}

// Blocks returns the total number of blocks tracked.
func (l *List) Blocks() uint64 { return l.blocks }

// InUse returns the number of allocated blocks.
func (l *List) InUse() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inUse
}

func (l *List) get(i uint64) bool {
	return l.words[i/64]&(1<<(i%64)) != 0
}

func (l *List) set(i uint64) {
	l.words[i/64] |= 1 << (i % 64)
}

func (l *List) clear(i uint64) {
	l.words[i/64] &^= 1 << (i % 64)
}

// Allocate finds and marks a contiguous run of n free blocks, returning the
// first block number. It scans from a rotating hint for O(1) amortized
// behaviour on append-heavy workloads. When no run fits it returns
// ErrNoSpace itself, unwrapped: a full OCM device fails one Allocate per
// cache fill, under the cache's lock, and that failure must cost nothing.
func (l *List) Allocate(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("freelist: zero-length allocation")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.blocks-l.inUse { // fewer free blocks than n: no scan can succeed
		return 0, ErrNoSpace
	}
	if start, ok := l.scan(l.hint, n); ok {
		l.markUsed(start, n)
		l.hint = start + n
		return start, nil
	}
	if start, ok := l.scan(0, n); ok {
		l.markUsed(start, n)
		l.hint = start + n
		return start, nil
	}
	return 0, ErrNoSpace
}

// scan looks for the first free run of n blocks starting at or after from. It
// hops a word at a time: to the next free block, then to the next used one,
// and the gap between them either holds n blocks or is skipped whole.
func (l *List) scan(from, n uint64) (uint64, bool) {
	for i := from; i < l.blocks; {
		start := l.next(i, l.blocks, true)
		if n > l.blocks-start { // also no free block at all: start == l.blocks
			break
		}
		end := l.next(start, start+n, false)
		if end == start+n {
			return start, true
		}
		i = end
	}
	return 0, false
}

// next returns the first block in [i, limit) that is free (free true) or in
// use (free false), or limit if there is none.
func (l *List) next(i, limit uint64, free bool) uint64 {
	for i < limit {
		w := l.words[i/64]
		if free {
			w = ^w
		}
		// Drop the bits below i; a zero means no match in the rest of the word.
		if w >>= i % 64; w != 0 {
			return min(i+uint64(bits.TrailingZeros64(w)), limit)
		}
		i += 64 - i%64
	}
	return limit
}

func (l *List) markUsed(start, n uint64) {
	for i := start; i < start+n; i++ {
		l.set(i)
	}
	l.inUse += n
}

// MarkUsed marks [start, start+n) as allocated regardless of prior state.
// It is used during checkpoint recovery when replaying RB bitmaps.
func (l *List) MarkUsed(start, n uint64) error {
	if start+n > l.blocks {
		return fmt.Errorf("mark used [%d,%d): beyond %d blocks", start, start+n, l.blocks)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := start; i < start+n; i++ {
		if !l.get(i) {
			l.set(i)
			l.inUse++
		}
	}
	return nil
}

// Free releases [start, start+n). Freeing already-free blocks is an error,
// which catches double-free bugs in the page lifecycle.
func (l *List) Free(start, n uint64) error {
	if start+n > l.blocks {
		return fmt.Errorf("free [%d,%d): beyond %d blocks", start, start+n, l.blocks)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := start; i < start+n; i++ {
		if !l.get(i) {
			return fmt.Errorf("free block %d: already free", i)
		}
	}
	for i := start; i < start+n; i++ {
		l.clear(i)
	}
	l.inUse -= n
	if start < l.hint {
		l.hint = start
	}
	return nil
}

// Release frees [start, start+n) tolerating already-free blocks. It is used
// by garbage collection after crash recovery, where the same extent may be
// reclaimed twice (the paper's rollback-then-restart polling, Table 1).
func (l *List) Release(start, n uint64) error {
	if start+n > l.blocks {
		return fmt.Errorf("release [%d,%d): beyond %d blocks", start, start+n, l.blocks)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := start; i < start+n; i++ {
		if l.get(i) {
			l.clear(i)
			l.inUse--
		}
	}
	if start < l.hint {
		l.hint = start
	}
	return nil
}

// IsUsed reports whether block i is allocated.
func (l *List) IsUsed(i uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= l.blocks {
		return false
	}
	return l.get(i)
}

// Clone returns a deep copy, used when checkpointing.
func (l *List) Clone() *List {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &List{
		words:  make([]uint64, len(l.words)),
		blocks: l.blocks,
		inUse:  l.inUse,
		hint:   l.hint,
	}
	copy(c.words, l.words)
	return c
}

// Marshal serializes the freelist for the checkpoint block.
func (l *List) Marshal() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 16+8*len(l.words))
	binary.LittleEndian.PutUint64(buf[0:], l.blocks)
	binary.LittleEndian.PutUint64(buf[8:], l.inUse)
	for i, w := range l.words {
		binary.LittleEndian.PutUint64(buf[16+8*i:], w)
	}
	return buf
}

// Unmarshal restores a freelist from Marshal output.
func Unmarshal(data []byte) (*List, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("freelist: short buffer (%d bytes)", len(data))
	}
	blocks := binary.LittleEndian.Uint64(data[0:])
	inUse := binary.LittleEndian.Uint64(data[8:])
	nwords := wordsFor(blocks) // at most 2^58, so 16+8*nwords cannot wrap
	if uint64(len(data)) < 16+8*nwords {
		return nil, fmt.Errorf("freelist: buffer truncated: %d bytes for %d blocks", len(data), blocks)
	}
	l := &List{words: make([]uint64, nwords), blocks: blocks, inUse: inUse}
	var counted uint64
	for i := range l.words {
		l.words[i] = binary.LittleEndian.Uint64(data[16+8*i:])
		counted += uint64(bits.OnesCount64(l.words[i]))
	}
	if counted != inUse {
		return nil, fmt.Errorf("freelist: corrupt image: header says %d in use, bitmap has %d", inUse, counted)
	}
	// A bit past the last block would count as in use and never be free, and
	// Allocate's free count (blocks - inUse) would understate the free space.
	if r := blocks % 64; r != 0 && l.words[nwords-1]>>r != 0 {
		return nil, fmt.Errorf("freelist: corrupt image: a block past %d marked in use", blocks)
	}
	return l, nil
}
