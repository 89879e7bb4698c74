package wal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudiq/internal/blockdev"
)

func newDev() *blockdev.MemDevice {
	return blockdev.NewMem(blockdev.Config{Growable: true})
}

func ctxb() context.Context { return context.Background() }

func TestAppendAndReplay(t *testing.T) {
	l, err := Open(ctxb(), newDev())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctxb(), RecAlloc, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctxb(), RecCommit, []byte("b")); err != nil {
		t.Fatal(err)
	}
	var got []string
	err = l.Replay(ctxb(), func(r Record) error {
		got = append(got, fmt.Sprintf("%s:%s", r.Type, r.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "alloc:a" || got[1] != "commit:b" {
		t.Fatalf("replay = %v", got)
	}
}

func TestReplayStartsAtCheckpoint(t *testing.T) {
	l, _ := Open(ctxb(), newDev())
	_, _ = l.Append(ctxb(), RecAlloc, []byte("before"))
	ckLSN, err := l.Checkpoint(ctxb(), []byte("ck"))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = l.Append(ctxb(), RecCommit, []byte("after"))

	var got []string
	_ = l.Replay(ctxb(), func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	})
	if len(got) != 2 || got[0] != "ck" || got[1] != "after" {
		t.Fatalf("replay from checkpoint = %v", got)
	}
	if l.CheckpointLSN() != ckLSN {
		t.Fatalf("CheckpointLSN = %d, want %d", l.CheckpointLSN(), ckLSN)
	}
}

func TestReopenPreservesLog(t *testing.T) {
	dev := newDev()
	l, _ := Open(ctxb(), dev)
	_, _ = l.Append(ctxb(), RecAlloc, []byte("one"))
	_, _ = l.Checkpoint(ctxb(), []byte("ck"))
	_, _ = l.Append(ctxb(), RecRollback, []byte("two"))
	endBefore := l.Size()

	// Simulate a crash and restart: reopen the same device.
	l2, err := Open(ctxb(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Size() != endBefore {
		t.Fatalf("reopened Size = %d, want %d", l2.Size(), endBefore)
	}
	var got []string
	_ = l2.Replay(ctxb(), func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	})
	if len(got) != 2 || got[0] != "ck" || got[1] != "two" {
		t.Fatalf("replay after reopen = %v", got)
	}
	// New appends continue after the old tail.
	lsn, err := l2.Append(ctxb(), RecCommit, []byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(lsn) != endBefore {
		t.Fatalf("append after reopen at %d, want %d", lsn, endBefore)
	}
}

func TestReplayStopsOnCallbackError(t *testing.T) {
	l, _ := Open(ctxb(), newDev())
	_, _ = l.Append(ctxb(), RecAlloc, nil)
	_, _ = l.Append(ctxb(), RecAlloc, nil)
	sentinel := errors.New("stop")
	var n int
	err := l.Replay(ctxb(), func(Record) error { n++; return sentinel })
	if !errors.Is(err, sentinel) || n != 1 {
		t.Fatalf("err = %v after %d records", err, n)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dev := newDev()
	l, _ := Open(ctxb(), dev)
	lsn, _ := l.Append(ctxb(), RecCommit, []byte("payload"))
	// Flip a payload byte on the device.
	b := []byte{0xFF}
	if err := dev.WriteAt(ctxb(), b, int64(lsn)+frameOverhead); err != nil {
		t.Fatal(err)
	}
	err := l.Replay(ctxb(), func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of corrupt record: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	dev := newDev()
	if err := dev.WriteAt(ctxb(), make([]byte, headerSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctxb(), dev); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornTailIgnoredOnReopen(t *testing.T) {
	dev := newDev()
	l, _ := Open(ctxb(), dev)
	_, _ = l.Append(ctxb(), RecAlloc, []byte("good"))
	// Write a torn frame: a header claiming a payload longer than the device.
	torn := []byte{200, 0, 0, 0, byte(RecCommit), 0, 0, 0, 0}
	if err := dev.WriteAt(ctxb(), torn, l.Size()); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(ctxb(), dev)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := l2.Replay(ctxb(), func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail dropped)", n)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := Open(ctxb(), newDev())
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(ctxb(), RecAlloc, []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var n int
	if err := l.Replay(ctxb(), func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers*each {
		t.Fatalf("replayed %d records, want %d", n, writers*each)
	}
}

func TestRecordTypeString(t *testing.T) {
	for _, tc := range []struct {
		typ  RecordType
		want string
	}{
		{RecAlloc, "alloc"}, {RecCommit, "commit"}, {RecRollback, "rollback"},
		{RecCheckpoint, "checkpoint"}, {RecSnapshot, "snapshot"}, {RecordType(99), "type(99)"},
	} {
		if got := tc.typ.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", tc.typ, got, tc.want)
		}
	}
}
