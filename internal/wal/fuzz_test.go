package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"cloudiq/internal/blockdev"
)

// sampleLog writes a log of appends on both sides of a checkpoint and returns
// its device image and what a replay of the whole image yields: the
// checkpoint record and every record after it.
func sampleLog(tb testing.TB) ([]byte, []Record) {
	tb.Helper()
	dev := newDev()
	l, err := Open(ctxb(), dev)
	if err != nil {
		tb.Fatal(err)
	}
	appendAll := func(recs ...Record) {
		for _, r := range recs {
			if _, err := l.Append(ctxb(), r.Type, r.Payload); err != nil {
				tb.Fatal(err)
			}
		}
	}
	appendAll(Record{Type: RecAlloc, Payload: []byte("keys 0-1023")},
		Record{Type: RecCommit, Payload: []byte("commit with bitmap images")})
	if _, err := l.Checkpoint(ctxb(), []byte("catalog image")); err != nil {
		tb.Fatal(err)
	}
	appendAll(Record{Type: RecSnapshot, Payload: []byte("snapshot meta")},
		Record{Type: RecCommit, Payload: []byte("second commit")},
		Record{Type: RecRollback})
	image := make([]byte, dev.Size())
	if err := dev.ReadAt(ctxb(), image, 0); err != nil {
		tb.Fatal(err)
	}
	want, _, err := replayImage(image)
	if err != nil || len(want) != 4 {
		tb.Fatalf("sample log replays %d records, err %v; want 4", len(want), err)
	}
	return image, want
}

// replayImage opens a log over a growable device holding image and replays
// it, returning the records and the device as the log left it.
func replayImage(image []byte) ([]Record, *blockdev.MemDevice, error) {
	dev := newDev()
	if err := dev.WriteAt(ctxb(), image, 0); err != nil {
		return nil, dev, err
	}
	l, err := Open(ctxb(), dev)
	if err != nil {
		return nil, dev, err
	}
	var recs []Record
	err = l.Replay(ctxb(), func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, dev, err
}

// TestReplayEveryPrefix cuts the sample log at every byte: each prefix must
// open and replay without error exactly the records of the whole log that
// lie complete inside it, so a torn tail anywhere — the header, a frame
// before the checkpoint, the checkpoint itself, a frame after it — loses
// only what was torn.
func TestReplayEveryPrefix(t *testing.T) {
	image, want := sampleLog(t)
	for cut := 0; cut <= len(image); cut++ {
		got, _, err := replayImage(image[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		n := 0
		for _, r := range want {
			if int(r.LSN)+frameOverhead+len(r.Payload) <= cut {
				n++
			}
		}
		if len(got) != n {
			t.Fatalf("cut %d: replayed %d records, want the first %d", cut, len(got), n)
		}
		for i, r := range got {
			if r.LSN != want[i].LSN || r.Type != want[i].Type || !bytes.Equal(r.Payload, want[i].Payload) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want[i])
			}
		}
	}
}

// FuzzReplay feeds arbitrary device images to Open and Replay. Neither may
// panic; every error must be ErrCorrupt or a device error; and every record
// replayed must be a frame on the device whose payload matches its CRC.
func FuzzReplay(f *testing.F) {
	image, _ := sampleLog(f)
	for cut := 0; cut <= len(image); cut += 5 {
		f.Add(image[:cut])
	}
	f.Add(image)
	f.Fuzz(func(t *testing.T, image []byte) {
		recs, dev, err := replayImage(image)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Fatalf("error is neither ErrCorrupt nor a device error: %v", err)
		}
		stored := make([]byte, dev.Size())
		if err := dev.ReadAt(ctxb(), stored, 0); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			off, n := int64(r.LSN), int64(len(r.Payload))
			if off < 0 || off+frameOverhead+n > int64(len(stored)) {
				t.Fatalf("record at %d with %d payload bytes lies outside the %d-byte device", off, n, len(stored))
			}
			frame := stored[off : off+frameOverhead+n]
			if binary.LittleEndian.Uint32(frame) != uint32(n) || RecordType(frame[4]) != r.Type ||
				!bytes.Equal(frame[frameOverhead:], r.Payload) {
				t.Fatalf("record at %d does not match the frame stored there", off)
			}
			if crc32.ChecksumIEEE(r.Payload) != binary.LittleEndian.Uint32(frame[5:]) {
				t.Fatalf("record at %d replayed with a payload that fails its frame CRC", off)
			}
		}
	})
}
