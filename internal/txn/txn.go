// Package txn implements SAP IQ's transaction manager as extended for cloud
// storage (§3.3): multi-version concurrency control with snapshot isolation,
// per-transaction roll-forward/roll-back bitmaps, a committed-transaction
// chain driving garbage collection, transaction-log–based crash recovery of
// the Object Key Generator's active sets, and the writer-restart GC walk of
// Table 1. The retirement of expired page versions can be intercepted by the
// snapshot manager (§5), which takes ownership instead of deleting.
package txn

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"cloudiq/internal/core"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

// Status describes a transaction's lifecycle state.
type Status int

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusRolledBack
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusRolledBack:
		return "rolled back"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Txn is one transaction. Pages it allocates are recorded per dbspace in RB
// bitmaps; pages it marks for deletion in RF bitmaps. A Txn is owned by a
// single goroutine; the Manager's own structures are concurrency safe.
type Txn struct {
	id       uint64
	node     string
	snapshot uint64 // highest commit sequence visible to this transaction

	mu     sync.Mutex
	status Status
	spaces map[string]*spaceBitmaps
}

type spaceBitmaps struct {
	rb *rfrb.Bitmap // allocations
	rf *rfrb.Bitmap // deallocations (deferred to version GC)
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Node returns the multiplex node the transaction runs on.
func (t *Txn) Node() string { return t.node }

// Snapshot returns the commit sequence this transaction reads as of.
func (t *Txn) Snapshot() uint64 { return t.snapshot }

// Status returns the current lifecycle state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

func (t *Txn) space(name string) *spaceBitmaps {
	sb, ok := t.spaces[name]
	if !ok {
		sb = &spaceBitmaps{rb: &rfrb.Bitmap{}, rf: &rfrb.Bitmap{}}
		t.spaces[name] = sb
	}
	return sb
}

// Sink returns the FlushSink that records page allocations and frees on the
// named dbspace into this transaction's RB/RF bitmaps. Pass it to buffer
// manager flushes and blockmap flushes performed on behalf of the
// transaction.
func (t *Txn) Sink(space string) core.FlushSink {
	return txnSink{t: t, space: space}
}

type txnSink struct {
	t     *Txn
	space string
}

// NoteAllocated implements core.FlushSink.
func (s txnSink) NoteAllocated(e core.Entry) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.space(s.space).rb.AddRange(e.Span())
}

// NoteFreed implements core.FlushSink.
func (s txnSink) NoteFreed(e core.Entry) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.space(s.space).rf.AddRange(e.Span())
}

// RB returns a copy of the transaction's allocation bitmap for space.
func (t *Txn) RB(space string) *rfrb.Bitmap {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sb, ok := t.spaces[space]; ok {
		return sb.rb.Clone()
	}
	return &rfrb.Bitmap{}
}

// RF returns a copy of the transaction's deallocation bitmap for space.
func (t *Txn) RF(space string) *rfrb.Bitmap {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sb, ok := t.spaces[space]; ok {
		return sb.rf.Clone()
	}
	return &rfrb.Bitmap{}
}

// cloudRB returns the union of cloud-key allocations across dbspaces — what
// the coordinator needs to maintain its active sets.
func (t *Txn) cloudRB() *rfrb.Bitmap {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &rfrb.Bitmap{}
	for _, sb := range t.spaces {
		for _, r := range sb.rb.CloudRanges() {
			out.AddRange(r)
		}
	}
	return out
}

// --- commit record encoding ---

// CommitRecord is the decoded form of a RecCommit payload.
type CommitRecord struct {
	TxnID  uint64
	Node   string
	Spaces []SpaceBitmaps
	// Meta is an opaque engine payload replayed at recovery — the database
	// layer stores its catalog publications (table name -> new identity)
	// here so that committed schema/version changes survive crashes.
	Meta []byte
}

// SpaceBitmaps carries one dbspace's RF/RB images inside a commit record.
type SpaceBitmaps struct {
	Space string
	RF    *rfrb.Bitmap
	RB    *rfrb.Bitmap
}

// MarshalCommit encodes a commit record payload: the transaction id, the
// node name, the meta image, the dbspace count, then each dbspace's name
// and RF and RB images. The buffer is sized once: the meta image can carry
// a transaction's inserted rows.
func MarshalCommit(rec CommitRecord) []byte {
	n := 8 + 2 + len(rec.Node) + 4 + len(rec.Meta) + 4
	for _, sp := range rec.Spaces {
		n += 2 + len(sp.Space) + 4 + sp.RF.MarshalSize() + 4 + sp.RB.MarshalSize()
	}
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, n), rec.TxnID)
	buf = wal.AppendBytes32(wal.AppendString16(buf, rec.Node), rec.Meta)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Spaces)))
	for _, sp := range rec.Spaces {
		buf = wal.AppendBytes32(wal.AppendString16(buf, sp.Space), sp.RF.Marshal())
		buf = wal.AppendBytes32(buf, sp.RB.Marshal())
	}
	return buf
}

// UnmarshalCommit decodes MarshalCommit output.
func UnmarshalCommit(p []byte) (CommitRecord, error) {
	d := wal.NewReader(p)
	rec := CommitRecord{TxnID: d.U64(), Node: d.String16()}
	if meta := d.Bytes32(); len(meta) > 0 {
		rec.Meta = append([]byte(nil), meta...)
	}
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		// Fields are read in the order they are listed: name, RF, RB.
		sp := SpaceBitmaps{Space: d.String16(), RF: wal.Decode32(&d, rfrb.Unmarshal), RB: wal.Decode32(&d, rfrb.Unmarshal)}
		rec.Spaces = append(rec.Spaces, sp)
	}
	if err := d.End(); err != nil {
		return CommitRecord{}, fmt.Errorf("txn: commit payload: %w", err)
	}
	return rec, nil
}

// sortedSpaceNames returns t's dbspace names in deterministic order.
func (t *Txn) sortedSpaceNames() []string {
	names := make([]string, 0, len(t.spaces))
	for name := range t.spaces {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
