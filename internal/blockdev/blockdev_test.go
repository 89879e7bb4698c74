package blockdev

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/iomodel"
)

func ctxb() context.Context { return context.Background() }

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewMem(Config{Capacity: 1024})
	want := []byte("columnar")
	if err := d.WriteAt(ctxb(), want, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := d.ReadAt(ctxb(), got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("ReadAt = %q, want %q", got, want)
	}
}

// TestMemDeviceIOAllocs: with no fault plan, a read and a write allocate
// nothing — in particular no fault detail is formatted for a plan that is
// not there. Every OCM SSD I/O runs this path.
func TestMemDeviceIOAllocs(t *testing.T) {
	d := NewMem(Config{Capacity: 1 << 20})
	page := make([]byte, 4096)
	const off = 40960 // past strconv's cached small numbers
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.WriteAt(ctxb(), page, off); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadAt(ctxb(), page, off); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadAt + WriteAt with no fault plan: %v allocations, want 0", allocs)
	}
}

func TestOutOfRange(t *testing.T) {
	d := NewMem(Config{Capacity: 10})
	if err := d.WriteAt(ctxb(), make([]byte, 20), 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oversized write err = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadAt(ctxb(), make([]byte, 5), 8); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overhanging read err = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadAt(ctxb(), make([]byte, 1), -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative-offset read err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteAt(ctxb(), make([]byte, 1), -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative-offset write err = %v, want ErrOutOfRange", err)
	}
}

func TestGrowableDevice(t *testing.T) {
	d := NewMem(Config{Capacity: 4, Growable: true})
	if err := d.WriteAt(ctxb(), []byte("abcdef"), 2); err != nil {
		t.Fatal(err)
	}
	if got := d.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
	got := make([]byte, 6)
	if err := d.ReadAt(ctxb(), got, 2); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("ReadAt = %q", got)
	}
}

// TestGrowthIsAmortised pins ROADMAP 4b: appending 4 KiB records used to
// reallocate and copy the whole device per append, so a log append cost grew
// with the log (16 MiB of appends copied 32 GiB). Size still reports the
// written length, and a sparse write past the end reads back zeros in between.
func TestGrowthIsAmortised(t *testing.T) {
	const record, final = 4 << 10, 16 << 20
	d := NewMem(Config{Growable: true})
	rec := bytes.Repeat([]byte{0xab}, record)
	var copied int64
	for off := int64(0); off < final; off += record {
		before, held := cap(d.data), int64(len(d.data))
		if err := d.WriteAt(ctxb(), rec, off); err != nil {
			t.Fatal(err)
		}
		if cap(d.data) != before {
			copied += held
		}
		if got := d.Size(); got != off+record {
			t.Fatalf("Size = %d after appending to %d", got, off+record)
		}
	}
	if copied > 3*final {
		t.Errorf("growth copied %d bytes to reach %d, limit 3x — is every append reallocating again?", copied, final)
	}

	// A write that leaves a gap inside spare capacity: the gap must be zero.
	if err := d.WriteAt(ctxb(), rec, final); err != nil {
		t.Fatal(err)
	}
	gapStart := d.Size()
	if int64(cap(d.data)) < gapStart+2*record {
		t.Fatalf("capacity %d leaves no spare room after %d: the gap check below would not test a reslice", cap(d.data), gapStart)
	}
	if err := d.WriteAt(ctxb(), rec, gapStart+record); err != nil {
		t.Fatal(err)
	}
	gap := bytes.Repeat([]byte{0xff}, record)
	if err := d.ReadAt(ctxb(), gap, gapStart); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gap, make([]byte, record)) {
		t.Error("bytes between the old and the new length are not zero")
	}

	fixed := NewMem(Config{Capacity: record})
	if err := fixed.WriteAt(ctxb(), rec, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("non-growable device: write past the end err = %v, want ErrOutOfRange", err)
	}
	if got := fixed.Size(); got != record {
		t.Errorf("non-growable device: Size = %d, want %d", got, record)
	}
}

func TestStats(t *testing.T) {
	d := NewMem(Config{Capacity: 100})
	_ = d.WriteAt(ctxb(), make([]byte, 10), 0)
	_ = d.ReadAt(ctxb(), make([]byte, 4), 0)
	s := d.Stats()
	if s.Writes() != 1 || s.Reads() != 1 || s.BytesWritten() != 10 || s.BytesRead() != 4 {
		t.Fatalf("stats: w=%d r=%d bw=%d br=%d", s.Writes(), s.Reads(), s.BytesWritten(), s.BytesRead())
	}
	s.Reset()
	if s.Writes() != 0 || s.BytesRead() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestContextCancellation(t *testing.T) {
	d := NewMem(Config{Capacity: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.ReadAt(ctx, make([]byte, 1), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadAt err = %v", err)
	}
	if err := d.WriteAt(ctx, make([]byte, 1), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteAt err = %v", err)
	}
}

func TestInjectedWriteFailure(t *testing.T) {
	plan := faultinject.New(1)
	plan.Always(faultinject.DevWrite.With("5")) // only offset 5 faults
	d := NewMem(Config{Capacity: 10, Faults: plan})
	if err := d.WriteAt(ctxb(), []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(ctxb(), []byte{1}, 5); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

func TestInjectedReadFailure(t *testing.T) {
	plan := faultinject.New(1)
	plan.FailNext(faultinject.DevRead, 1)
	d := NewMem(Config{Capacity: 10, Faults: plan})
	if err := d.ReadAt(ctxb(), make([]byte, 1), 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if err := d.ReadAt(ctxb(), make([]byte, 1), 0); err != nil {
		t.Fatalf("read after one-shot fault: %v", err)
	}
}

// A torn write persists a prefix of the payload and fails the request.
func TestTornWritePersistsPrefix(t *testing.T) {
	plan := faultinject.New(1)
	plan.Lag(faultinject.DevTornWrite, 3, 3)
	d := NewMem(Config{Capacity: 10, Faults: plan})
	err := d.WriteAt(ctxb(), []byte{1, 2, 3, 4, 5}, 0)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected torn write", err)
	}
	plan.Clear(faultinject.DevTornWrite)
	got := make([]byte, 5)
	if err := d.ReadAt(ctxb(), got, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("data after torn write = %v, want %v", got, want)
		}
	}
}

func TestQueueContentionSlowsReadsUnderWriteLoad(t *testing.T) {
	// The OCM brown-out in miniature: with a shared device queue, reads
	// charge more simulated time when they queue behind writes.
	scale := iomodel.NewScale(0)
	queue := iomodel.NewResource(scale, time.Millisecond, 0)
	d := NewMem(Config{Capacity: 1 << 20, Queue: queue, Scale: scale})

	_ = d.ReadAt(ctxb(), make([]byte, 8), 0)
	if got := scale.Charged(); got != time.Millisecond {
		t.Fatalf("lone read charged %v, want 1ms", got)
	}
	scale.ResetCharged()
	for i := 0; i < 9; i++ {
		_ = d.WriteAt(ctxb(), make([]byte, 8), int64(i*8))
	}
	_ = d.ReadAt(ctxb(), make([]byte, 8), 0)
	if got, want := scale.Charged(), 10*time.Millisecond; got != want {
		t.Fatalf("read behind 9 writes charged %v total, want %v", got, want)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	d := NewMem(Config{Capacity: 1 << 16})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			buf := []byte{byte(w)}
			for i := 0; i < 500; i++ {
				if err := d.WriteAt(ctxb(), buf, int64(w*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 1)
			for i := 0; i < 500; i++ {
				if err := d.ReadAt(ctxb(), buf, int64(w*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPropertyWriteReadIdentity(t *testing.T) {
	d := NewMem(Config{Capacity: 0, Growable: true})
	f := func(data []byte, off uint16) bool {
		if err := d.WriteAt(ctxb(), data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := d.ReadAt(ctxb(), got, int64(off)); err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
