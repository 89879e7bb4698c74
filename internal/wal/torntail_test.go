package wal

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
)

// TestReplayTornTailEveryByteBoundary truncates the log at every byte
// boundary of its final record and asserts Open + Replay recover cleanly to
// the last complete record: no error, no partial record surfaced.
func TestReplayTornTailEveryByteBoundary(t *testing.T) {
	ctx := context.Background()
	dev := blockdev.NewMem(blockdev.Config{Growable: true})
	l, err := Open(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("first allocation"),
		[]byte("commit with bitmap images"),
		[]byte("the final record that will be torn"),
	}
	for i, p := range payloads {
		if _, err := l.Append(ctx, RecordType(i%3+1), p); err != nil {
			t.Fatal(err)
		}
	}
	full := l.Size()
	lastStart := full - int64(frameOverhead+len(payloads[2]))

	image := make([]byte, full)
	if err := dev.ReadAt(ctx, image, 0); err != nil {
		t.Fatal(err)
	}
	for cut := lastStart; cut < full; cut++ {
		torn := blockdev.NewMem(blockdev.Config{Growable: true})
		if err := torn.WriteAt(ctx, image[:cut], 0); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(ctx, torn)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		var got []Record
		if err := l2.Replay(ctx, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		if len(got) != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, len(got))
		}
		for i, r := range got {
			if string(r.Payload) != string(payloads[i]) {
				t.Fatalf("cut %d: record %d = %q", cut, i, r.Payload)
			}
		}
		// The log must be appendable after a torn tail: the new record
		// overwrites the garbage and replays.
		if _, err := l2.Append(ctx, RecSnapshot, []byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append after torn tail: %v", cut, err)
		}
		n := 0
		if err := l2.Replay(ctx, func(Record) error { n++; return nil }); err != nil {
			t.Fatalf("cut %d: replay after append: %v", cut, err)
		}
		if n != 3 {
			t.Fatalf("cut %d: %d records after append, want 3", cut, n)
		}
	}
}

// TestInjectedTornAppend drives the torn tail through the fault plan: the
// append fails, end does not advance, and a reopened log sees only the
// records that fully committed to the device.
func TestInjectedTornAppend(t *testing.T) {
	ctx := context.Background()
	dev := blockdev.NewMem(blockdev.Config{Growable: true})
	l, err := Open(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctx, RecAlloc, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.New(7)
	plan.Lag(faultinject.WALTornTail.With("commit"), 1, 12)
	l.InjectFaults(plan)
	if _, err := l.Append(ctx, RecCommit, []byte("torn commit")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// Only the commit record type is armed; other records still append.
	if _, err := l.Append(ctx, RecRollback, []byte("fine")); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	if err := l2.Replay(ctx, func(r Record) error {
		types = append(types, r.Type.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(types) != "[alloc rollback]" {
		t.Fatalf("replayed %v, want [alloc rollback]", types)
	}
}

// TestInjectedAppendFailureByRecordType checks detail scoping: only commit
// appends fail while the rule is armed.
func TestInjectedAppendFailureByRecordType(t *testing.T) {
	ctx := context.Background()
	l, err := Open(ctx, blockdev.NewMem(blockdev.Config{Growable: true}))
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.New(1)
	plan.FailNext(faultinject.WALAppend.With("commit"), 1)
	l.InjectFaults(plan)
	if _, err := l.Append(ctx, RecAlloc, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctx, RecCommit, nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if _, err := l.Append(ctx, RecCommit, nil); err != nil {
		t.Fatalf("one-shot fault did not heal: %v", err)
	}
}

// TestAppendReportsNotAppended: an append that failed before its write, or
// wrote only a torn prefix, is ErrNotAppended and leaves the end where it
// was; a write the device refused is not, since the device may hold it.
func TestAppendReportsNotAppended(t *testing.T) {
	ctx := context.Background()
	plan := faultinject.New(1)
	l, err := Open(ctx, blockdev.NewMem(blockdev.Config{Growable: true, Faults: plan}))
	if err != nil {
		t.Fatal(err)
	}
	l.InjectFaults(plan)
	for _, c := range []struct {
		site faultinject.Site
		arm  func(s faultinject.Site)
		not  bool
	}{
		{faultinject.WALAppend.With("commit"), func(s faultinject.Site) { plan.Always(s) }, true},
		{faultinject.WALTornTail.With("commit"), func(s faultinject.Site) { plan.Lag(s, 1, 8) }, true},
		{faultinject.DevWrite, func(s faultinject.Site) { plan.Always(s) }, false},
	} {
		end := l.Size()
		c.arm(c.site)
		_, err := l.Append(ctx, RecCommit, []byte("payload"))
		plan.Clear(c.site)
		if !errors.Is(err, faultinject.ErrInjected) || errors.Is(err, ErrNotAppended) != c.not {
			t.Errorf("%s: err = %v, want injected, not appended %v", c.site, err, c.not)
		}
		if l.Size() != end {
			t.Errorf("%s: the end moved %d → %d", c.site, end, l.Size())
		}
	}
	if _, err := l.Append(ctx, RecCommit, []byte("payload")); err != nil {
		t.Fatal(err)
	}
}
