// Package delta implements the write-optimized half of the HTAP-lite ingest
// lane: a per-table, row-oriented, in-memory delta store that absorbs trickle
// inserts between bulk loads. Durability comes from the transaction log — the
// engine appends a RecDeltaInsert record before commit and replays it after a
// crash — so delta rows never touch the object store until a background
// compactor drains them into encoded column pages through the ordinary
// never-write-twice table append path.
//
// Visibility follows the engine's snapshot-sequence MVCC rules. Every run of
// rows carries the commit sequence that published it (Seq) and, once a
// compaction has absorbed it, the sequence of the compacting commit
// (CompactedAt). A snapshot at sequence s sees a run exactly when
//
//	run.Seq <= s && (run.CompactedAt == 0 || run.CompactedAt > s)
//
// which makes the compaction swap invisible: readers older than the swap keep
// reading the rows from the delta (their table version predates the drained
// segments), readers at or after the swap read them from the columnar main
// (the delta hides the absorbed runs). Absorbed runs are physically retired
// once the oldest live snapshot has advanced past their CompactedAt.
package delta

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"cloudiq/internal/table"
)

// Run is one committed batch of delta rows. Runs are immutable after Apply
// except for the CompactedAt stamp, which is written once under the store
// lock when a compaction commit publishes.
type Run struct {
	// BaseID is the table-local row id of the first row; ids are dense, so
	// the run covers [BaseID, BaseID+Rows.Rows()).
	BaseID uint64
	// Seq is the commit sequence that made the run visible.
	Seq uint64
	// CompactedAt is the commit sequence of the compaction that absorbed
	// the run into column segments, or zero while the run is live.
	CompactedAt uint64
	// Rows holds the run's rows in the table's full schema.
	Rows *table.Batch
}

// end returns the row id one past the run.
func (r *Run) end() uint64 { return r.BaseID + uint64(r.Rows.Rows()) }

// visibleAt reports whether a snapshot at sequence snap sees the run.
func (r *Run) visibleAt(snap uint64) bool {
	return r.Seq <= snap && (r.CompactedAt == 0 || r.CompactedAt > snap)
}

// tableDelta is one table's delta state.
type tableDelta struct {
	nextID uint64 // next row id to assign
	frozen uint64 // freeze watermark (row id); 0 = none pending
	runs   []*Run // ordered by BaseID
}

// Store is one node's delta registry: table name → committed delta runs.
// It is safe for concurrent use; a View decides visibility under the lock
// and keeps the visible runs, whose rows never change, so a scan never
// races a compaction stamp.
type Store struct {
	mu     sync.Mutex
	tables map[string]*tableDelta
}

// NewStore returns an empty registry.
func NewStore() *Store {
	return &Store{tables: make(map[string]*tableDelta)}
}

func (s *Store) tableLocked(name string) *tableDelta {
	td, ok := s.tables[name]
	if !ok {
		td = &tableDelta{}
		s.tables[name] = td
	}
	return td
}

// cloneBatch deep-copies a batch so runs stay immutable regardless of what
// the caller does with its buffers afterwards.
func cloneBatch(b *table.Batch) *table.Batch {
	out := table.NewBatch(b.Schema)
	appendBatch(out, b)
	return out
}

// appendBatch appends all rows of src to dst (schemas must match).
func appendBatch(dst, src *table.Batch) {
	for i, v := range src.Vecs {
		d := dst.Vecs[i]
		d.I64 = append(d.I64, v.I64...)
		d.F64 = append(d.F64, v.F64...)
		d.Str = append(d.Str, v.Str...)
	}
}

// Apply lands one committed run of rows for a table and returns the base row
// id it was assigned. The engine calls it inside the commit critical section
// (and from log replay, in the same order), so row ids are deterministic.
func (s *Store) Apply(name string, rows *table.Batch, seq uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	td := s.tableLocked(name)
	run := &Run{BaseID: td.nextID, Seq: seq, Rows: cloneBatch(rows)}
	td.nextID = run.end()
	td.runs = append(td.runs, run)
	return run.BaseID
}

// View is an immutable snapshot of a table's visible delta rows; it plugs
// into table.Table as its DeltaView so scans can merge the rows.
type View struct {
	runs []*table.Batch
}

// DeltaRuns returns the visible runs' rows in the table's full schema,
// oldest first.
func (v *View) DeltaRuns() []*table.Batch { return v.runs }

// View returns the runs of name visible to a snapshot at snap, or nil when
// there are none (so callers can attach nil and keep the fast all-columnar
// path, including pushdown). It copies no row: a scan projects and joins
// only the columns it reads.
func (s *Store) View(name string, snap uint64) *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.tables[name]
	if !ok {
		return nil
	}
	var runs []*table.Batch
	for _, r := range td.runs {
		if r.visibleAt(snap) {
			runs = append(runs, r.Rows)
		}
	}
	if runs == nil {
		return nil
	}
	return &View{runs: runs}
}

// LiveRows counts the delta rows of name visible to a snapshot at snap.
func (s *Store) LiveRows(name string, snap uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.tables[name]
	if !ok {
		return 0
	}
	n := 0
	for _, r := range td.runs {
		if r.visibleAt(snap) {
			n += r.Rows.Rows()
		}
	}
	return n
}

// Freeze seals the current end of name's delta as the compaction watermark
// and returns how many uncompacted rows sit below it. A subsequent
// compaction cycle drains only rows below the watermark, so inserts that
// land after the freeze ride the next cycle. The watermark is volatile — a
// crash simply loses the hint and the next cycle freezes afresh.
func (s *Store) Freeze(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.tables[name]
	if !ok {
		return 0
	}
	td.frozen = td.nextID
	n := 0
	for _, r := range td.runs {
		if r.CompactedAt == 0 && r.end() <= td.frozen {
			n += r.Rows.Rows()
		}
	}
	return n
}

// Frozen collects the live runs of name below its freeze watermark (or all
// live runs when no freeze is pending) into one batch, returning the batch
// and the row-id watermark the drain covers. It returns (nil, 0) when there
// is nothing to drain.
func (s *Store) Frozen(name string) (*table.Batch, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.tables[name]
	if !ok {
		return nil, 0
	}
	through := td.frozen
	if through == 0 {
		through = td.nextID
	}
	var out *table.Batch
	for _, r := range td.runs {
		if r.CompactedAt != 0 || r.end() > through {
			continue
		}
		if out == nil {
			out = table.NewBatch(r.Rows.Schema)
		}
		appendBatch(out, r.Rows)
	}
	if out == nil {
		return nil, 0
	}
	return out, through
}

// MarkCompacted stamps every live run of name that lies fully below through
// with the compacting commit's sequence. The engine calls it inside the
// commit critical section of the drain transaction, atomically with the
// publication of the table version that carries the drained segments.
func (s *Store) MarkCompacted(name string, through, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.tables[name]
	if !ok {
		return
	}
	for _, r := range td.runs {
		if r.CompactedAt == 0 && r.end() <= through {
			r.CompactedAt = seq
		}
	}
	if td.frozen != 0 && td.frozen <= through {
		td.frozen = 0
	}
}

// Drop hides every live run of name from snapshots at or after seq — the
// delta half of DROP TABLE. Older snapshots keep reading the rows until
// Retire collects them.
func (s *Store) Drop(name string, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.tables[name]
	if !ok {
		return
	}
	for _, r := range td.runs {
		if r.CompactedAt == 0 {
			r.CompactedAt = seq
		}
	}
	td.frozen = 0
}

// Retire physically removes absorbed runs no snapshot can still see: those
// with CompactedAt != 0 and CompactedAt <= oldest, where oldest is the
// oldest live snapshot sequence. It returns how many rows were released.
func (s *Store) Retire(oldest uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		td := s.tables[name]
		kept := td.runs[:0]
		for _, r := range td.runs {
			if r.CompactedAt != 0 && r.CompactedAt <= oldest {
				n += r.Rows.Rows()
				continue
			}
			kept = append(kept, r)
		}
		td.runs = kept
	}
	return n
}

// Tables returns, sorted, the names of tables with at least one live run.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name, td := range s.tables {
		for _, r := range td.runs {
			if r.CompactedAt == 0 {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	return names
}

// imageTable is the serialized form of one table's residual delta. Only
// live runs are captured: images are cut at checkpoints and snapshots, and
// both restore into a world with no snapshots older than the image, so
// absorbed runs can never be seen again.
type imageTable struct {
	Name   string
	NextID uint64
	Runs   []*Run
}

// Marshal serializes the residual (live) delta for checkpoints and database
// snapshots. Tables are emitted in name order so the image bytes are a
// deterministic function of the state.
func (s *Store) Marshal() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var img []imageTable
	for _, name := range names {
		td := s.tables[name]
		it := imageTable{Name: name, NextID: td.nextID}
		for _, r := range td.runs {
			if r.CompactedAt == 0 {
				it.Runs = append(it.Runs, r)
			}
		}
		if it.NextID == 0 && len(it.Runs) == 0 {
			continue
		}
		img = append(img, it)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("delta: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the registry's contents with a Marshal image.
func (s *Store) Restore(img []byte) error {
	var tables []imageTable
	if len(img) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&tables); err != nil {
			return fmt.Errorf("delta: restore: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = make(map[string]*tableDelta)
	for _, it := range tables {
		s.tables[it.Name] = &tableDelta{nextID: it.NextID, runs: it.Runs}
	}
	return nil
}

// InsertRecord is the payload of a wal.RecDeltaInsert record: rows staged
// by one transaction into one table. The commit record that follows makes
// them visible; without it the record is an orphan and replay drops it.
type InsertRecord struct {
	TxnID uint64
	Table string
	Rows  *table.Batch
}

// EncodeInsert serializes an InsertRecord for the log.
func EncodeInsert(rec InsertRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("delta: encode insert record: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeInsert parses a wal.RecDeltaInsert payload.
func DecodeInsert(payload []byte) (InsertRecord, error) {
	var rec InsertRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return InsertRecord{}, fmt.Errorf("delta: decode insert record: %w", err)
	}
	return rec, nil
}
