// Package core implements the paper's primary contribution: the cloud-native
// page store. Logical database pages map directly to objects in object
// stores (or to contiguous block runs on conventional devices); dirty pages
// are never written twice to the same object key, which reduces eventual
// consistency to the read-after-write case handled by bounded retry; and the
// blockmap — a copy-on-write tree — records each page's current physical
// location, cascading versioning up to a root whose location is stored in an
// identity object on strongly consistent storage (§3, §3.1, Figure 2).
package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cloudiq/internal/rfrb"
)

// EntrySize is the serialized size of an Entry in blockmap pages.
const EntrySize = 16

// Entry locates one physical page version: either an object key in
// [2^63, 2^64) with Blocks == 0, or a run of Blocks contiguous blocks
// starting at block number Loc. Size is the stored (possibly compressed)
// byte length. The paper overloads the 64-bit physical block number field
// the same way rather than adding a new field to the blockmap format.
type Entry struct {
	Loc    uint64 // object key or first block number
	Size   uint32 // stored bytes
	Blocks uint16 // block count; 0 for cloud entries
	Flags  uint16 // reserved (compression codec, etc.)
}

// IsZero reports whether the entry is unoccupied.
func (e Entry) IsZero() bool { return e == Entry{} }

// IsCloud reports whether the entry references an object-store key.
func (e Entry) IsCloud() bool { return rfrb.IsCloudKey(e.Loc) }

// Span returns the extent the entry occupies in the RF/RB bitmap domain:
// one value for a cloud key, Blocks values for a block run.
func (e Entry) Span() rfrb.Range {
	if e.IsCloud() {
		return rfrb.Range{Start: e.Loc, End: e.Loc + 1}
	}
	return rfrb.Range{Start: e.Loc, End: e.Loc + uint64(e.Blocks)}
}

// String renders the entry for logs.
func (e Entry) String() string {
	if e.IsZero() {
		return "<free>"
	}
	if e.IsCloud() {
		return fmt.Sprintf("obj(%#x, %dB)", e.Loc, e.Size)
	}
	return fmt.Sprintf("blk(%d+%d, %dB)", e.Loc, e.Blocks, e.Size)
}

func (e Entry) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], e.Loc)
	binary.LittleEndian.PutUint32(buf[8:], e.Size)
	binary.LittleEndian.PutUint16(buf[12:], e.Blocks)
	binary.LittleEndian.PutUint16(buf[14:], e.Flags)
}

func decodeEntry(buf []byte) Entry {
	return Entry{
		Loc:    binary.LittleEndian.Uint64(buf[0:]),
		Size:   binary.LittleEndian.Uint32(buf[8:]),
		Blocks: binary.LittleEndian.Uint16(buf[12:]),
		Flags:  binary.LittleEndian.Uint16(buf[14:]),
	}
}

// FlushSink receives the allocation and deallocation events produced when
// pages are flushed or superseded. The transaction manager implements it
// with the transaction's RB (allocations) and RF (deallocations) bitmaps.
type FlushSink interface {
	// NoteAllocated records that the extent of e was newly allocated.
	NoteAllocated(e Entry)
	// NoteFreed records that the extent of e is superseded and should be
	// reclaimed when the owning transaction's version expires.
	NoteFreed(e Entry)
}

// NopSink discards flush events; useful for bootstrap writes that are
// reclaimed by other means.
type NopSink struct{}

// NoteAllocated implements FlushSink.
func (NopSink) NoteAllocated(Entry) {}

// NoteFreed implements FlushSink.
func (NopSink) NoteFreed(Entry) {}

// BitmapSink adapts a pair of RF/RB bitmaps to FlushSink. It is not safe
// for concurrent use; wrap it with LockedSink when flushes run in parallel.
type BitmapSink struct {
	RB *rfrb.Bitmap // allocations
	RF *rfrb.Bitmap // deallocations
}

// LockedSink serializes a FlushSink for use by concurrent flushers.
func LockedSink(s FlushSink) FlushSink {
	return &lockedSink{inner: s}
}

type lockedSink struct {
	mu    sync.Mutex
	inner FlushSink
}

// NoteAllocated implements FlushSink.
func (l *lockedSink) NoteAllocated(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.NoteAllocated(e)
}

// NoteFreed implements FlushSink.
func (l *lockedSink) NoteFreed(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.NoteFreed(e)
}

// NoteAllocated implements FlushSink.
func (s BitmapSink) NoteAllocated(e Entry) {
	if s.RB != nil {
		s.RB.AddRange(e.Span())
	}
}

// NoteFreed implements FlushSink.
func (s BitmapSink) NoteFreed(e Entry) {
	if s.RF != nil {
		s.RF.AddRange(e.Span())
	}
}
