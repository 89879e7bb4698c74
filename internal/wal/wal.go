// Package wal implements SAP IQ-style transaction logging. As in the paper,
// the log stores metadata only — key-range allocations, commit/rollback
// records carrying RF/RB bitmap images, and checkpoints — never user data,
// which is why dirty data pages must reach permanent storage before a
// transaction commits. Recovery starts from the last checkpoint and replays
// subsequent records in order (§3.2, §3.3).
//
// The paper flushes RF/RB bitmaps to storage and records their identities in
// the log; this implementation inlines the (small) bitmap images in the
// commit records, which preserves the recovery protocol while keeping the
// log self-contained.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/pageio"
)

// RecordType identifies the kind of a log record.
type RecordType uint8

// Record types written by the engine.
const (
	// RecAlloc records a key-range allocation by the Object Key Generator.
	RecAlloc RecordType = iota + 1
	// RecCommit records a transaction commit with its RF/RB bitmap images.
	RecCommit
	// RecRollback records a transaction rollback.
	RecRollback
	// RecCheckpoint records a full metadata snapshot.
	RecCheckpoint
	// RecSnapshot records a database snapshot event (§5).
	RecSnapshot
	// RecDeltaInsert records rows staged into a table's in-memory delta
	// store by a not-yet-committed transaction. The record makes the
	// trickle-insert lane durable: the rows become visible only when the
	// transaction's RecCommit follows, so orphaned delta records (from a
	// crash before commit) are ignored on replay. This is the one record
	// kind that carries user data — delta rows have no page images to
	// flush before commit, so the log IS their durable home until the
	// compactor drains them into encoded column pages.
	RecDeltaInsert

	// maxRecordType bounds frame validation in readRecord; keep it equal
	// to the last declared record type.
	maxRecordType = RecDeltaInsert
)

func (t RecordType) String() string {
	switch t {
	case RecAlloc:
		return "alloc"
	case RecCommit:
		return "commit"
	case RecRollback:
		return "rollback"
	case RecCheckpoint:
		return "checkpoint"
	case RecSnapshot:
		return "snapshot"
	case RecDeltaInsert:
		return "delta-insert"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one framed log entry.
type Record struct {
	LSN     uint64 // byte offset of the record in the log
	Type    RecordType
	Payload []byte
}

// ErrCorrupt is returned when a frame fails validation during replay.
var ErrCorrupt = errors.New("wal: corrupt record")

const headerSize = 16    // [magic u32][pad u32][checkpoint offset u64]
const frameOverhead = 9  // [len u32][type u8][crc u32]
const magic = 0x69715741 // "iqWA"

// Log is an append-only transaction log over a block device. It is safe for
// concurrent use.
type Log struct {
	mu     sync.Mutex
	dev    blockdev.Device // kept for Size(); all I/O goes through pipe
	pipe   pageio.Handler
	end    int64 // next append offset
	ckp    int64 // offset of the last checkpoint record (0 = none)
	faults *faultinject.Plan
}

// InjectFaults arms the log with a fault plan. The WALAppend site fails
// appends outright; a non-zero WALTornTail lag draw persists only that many
// bytes of the frame and fails the append — the torn tail a crash
// mid-append leaves, which a subsequent Open must stop at cleanly. The
// detail for both sites is the record-type name ("commit", "alloc", ...).
func (l *Log) InjectFaults(p *faultinject.Plan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = p
}

// Open attaches to the log stored on dev, creating the header if the device
// is empty, or scanning to the end of the existing log otherwise. The device
// must be growable.
func Open(ctx context.Context, dev blockdev.Device) (*Log, error) {
	l := &Log{dev: dev, pipe: pageio.NewDevice(dev, nil), end: headerSize}
	if dev.Size() < headerSize {
		hdr := make([]byte, headerSize)
		binary.LittleEndian.PutUint32(hdr, magic)
		if err := l.pipe.WritePage(ctx, pageio.WriteReq{Data: hdr}); err != nil {
			return nil, fmt.Errorf("wal: init header: %w", err)
		}
		return l, nil
	}
	hdr, err := l.pipe.ReadPage(ctx, pageio.Ref{Len: headerSize})
	if err != nil {
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr) != magic {
		return nil, fmt.Errorf("wal: bad magic: %w", ErrCorrupt)
	}
	l.ckp = int64(binary.LittleEndian.Uint64(hdr[8:]))
	// Scan to find the end of the log.
	off := int64(headerSize)
	for {
		rec, next, err := l.readRecord(ctx, off)
		if err != nil {
			break // first unreadable frame is the end (torn tail is fine)
		}
		_ = rec
		off = next
	}
	l.end = off
	return l, nil
}

// Append writes a record and returns its LSN. The write is durable when
// Append returns (the simulated device has no volatile cache).
func (l *Log) Append(ctx context.Context, typ RecordType, payload []byte) (uint64, error) {
	frame := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	frame[4] = byte(typ)
	binary.LittleEndian.PutUint32(frame[5:], crc32.ChecksumIEEE(payload))
	copy(frame[frameOverhead:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.end
	if err := l.faults.Check(faultinject.WALAppend, typ.String()); err != nil {
		return 0, fmt.Errorf("wal: append %s: %w", typ, err)
	}
	if n := l.faults.LagAt(faultinject.WALTornTail, typ.String()); n > 0 {
		// Persist a strict prefix of the frame without advancing end:
		// the on-device image of a crash mid-append. The next Open's
		// scan stops at this torn frame.
		if n >= len(frame) {
			n = len(frame) - 1
		}
		_ = l.pipe.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Off: lsn}, Data: frame[:n]})
		return 0, fmt.Errorf("wal: append %s: torn after %d of %d bytes: %w",
			typ, n, len(frame), faultinject.ErrInjected)
	}
	if err := l.pipe.WritePage(ctx, pageio.WriteReq{Ref: pageio.Ref{Off: lsn}, Data: frame}); err != nil {
		return 0, fmt.Errorf("wal: append %s: %w", typ, err)
	}
	l.end += int64(len(frame))
	return uint64(lsn), nil
}

// Checkpoint appends a checkpoint record and durably points the header at
// it, bounding future recovery work.
func (l *Log) Checkpoint(ctx context.Context, payload []byte) (uint64, error) {
	lsn, err := l.Append(ctx, RecCheckpoint, payload)
	if err != nil {
		return 0, err
	}
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[8:], lsn)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.pipe.WritePage(ctx, pageio.WriteReq{Data: hdr}); err != nil {
		return 0, fmt.Errorf("wal: update checkpoint pointer: %w", err)
	}
	l.ckp = int64(lsn)
	return lsn, nil
}

// readRecord reads the frame at off, returning the record and the offset of
// the next frame.
func (l *Log) readRecord(ctx context.Context, off int64) (Record, int64, error) {
	if off+frameOverhead > l.dev.Size() {
		return Record{}, 0, fmt.Errorf("wal: offset %d past end: %w", off, ErrCorrupt)
	}
	head, err := l.pipe.ReadPage(ctx, pageio.Ref{Off: off, Len: frameOverhead})
	if err != nil {
		return Record{}, 0, err
	}
	n := binary.LittleEndian.Uint32(head)
	typ := RecordType(head[4])
	if typ == 0 || typ > maxRecordType {
		return Record{}, 0, fmt.Errorf("wal: bad type %d at %d: %w", typ, off, ErrCorrupt)
	}
	if off+frameOverhead+int64(n) > l.dev.Size() {
		return Record{}, 0, fmt.Errorf("wal: truncated frame at %d: %w", off, ErrCorrupt)
	}
	payload, err := l.pipe.ReadPage(ctx, pageio.Ref{Off: off + frameOverhead, Len: int(n)})
	if err != nil {
		return Record{}, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[5:]) {
		return Record{}, 0, fmt.Errorf("wal: crc mismatch at %d: %w", off, ErrCorrupt)
	}
	return Record{LSN: uint64(off), Type: typ, Payload: payload}, off + frameOverhead + int64(n), nil
}

// Replay invokes fn for the last checkpoint record (if any) and every record
// after it, in log order. Replay stops early if fn returns an error.
func (l *Log) Replay(ctx context.Context, fn func(Record) error) error {
	l.mu.Lock()
	start := l.ckp
	end := l.end
	l.mu.Unlock()
	if start == 0 {
		start = headerSize
	}
	for off := start; off < end; {
		rec, next, err := l.readRecord(ctx, off)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// Size returns the current end offset of the log in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// CheckpointLSN returns the LSN of the last checkpoint, or 0 if none exists.
func (l *Log) CheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(l.ckp)
}
