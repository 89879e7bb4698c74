package keygen

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/rfrb"
	"cloudiq/internal/wal"
)

func ctxb() context.Context { return context.Background() }

func newLog(t *testing.T) *wal.Log {
	t.Helper()
	l, err := wal.Open(ctxb(), blockdev.NewMem(blockdev.Config{Growable: true}))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAllocateMonotonicAndInReservedRange(t *testing.T) {
	g := NewGenerator(nil)
	var prev uint64
	for i := 0; i < 100; i++ {
		r, err := g.Allocate(ctxb(), "w1", 10)
		if err != nil {
			t.Fatal(err)
		}
		if !rfrb.IsCloudKey(r.Start) || !rfrb.IsCloudKey(r.End-1) {
			t.Fatalf("range %v outside reserved cloud range", r)
		}
		if r.Start < prev {
			t.Fatalf("range %v not monotonically increasing past %d", r, prev)
		}
		prev = r.End
	}
	if got := g.MaxAllocated(); got != rfrb.CloudKeyBase+1000 {
		t.Fatalf("MaxAllocated = %d, want base+1000", got)
	}
}

func TestAllocateZeroRejected(t *testing.T) {
	g := NewGenerator(nil)
	if _, err := g.Allocate(ctxb(), "w1", 0); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestActiveSetTracksOutstandingRanges(t *testing.T) {
	g := NewGenerator(nil)
	r1, _ := g.Allocate(ctxb(), "w1", 100)
	_, _ = g.Allocate(ctxb(), "w2", 50)

	if got := g.ActiveSet("w1"); len(got) != 1 || got[0] != r1 {
		t.Fatalf("ActiveSet(w1) = %v, want [%v]", got, r1)
	}
	if got := len(g.Nodes()); got != 2 {
		t.Fatalf("Nodes = %v", g.Nodes())
	}

	// Commit consumes the first 30 keys of w1's range.
	var consumed rfrb.Bitmap
	consumed.Add(r1.Start, r1.Start+30)
	g.OnCommit("w1", &consumed)
	got := g.ActiveSet("w1")
	if len(got) != 1 || got[0].Start != r1.Start+30 || got[0].End != r1.End {
		t.Fatalf("ActiveSet after commit = %v", got)
	}
}

func TestOnCommitIgnoresBlockRangesAndUnknownNodes(t *testing.T) {
	g := NewGenerator(nil)
	r, _ := g.Allocate(ctxb(), "w1", 10)
	var consumed rfrb.Bitmap
	consumed.Add(100, 200) // conventional block range, not a cloud key
	g.OnCommit("w1", &consumed)
	if got := g.ActiveSet("w1"); len(got) != 1 || got[0] != r {
		t.Fatalf("block ranges must not affect the active set: %v", got)
	}
	g.OnCommit("ghost", &consumed) // must not panic
}

func TestOnCommitFullConsumptionDropsNode(t *testing.T) {
	g := NewGenerator(nil)
	r, _ := g.Allocate(ctxb(), "w1", 10)
	var consumed rfrb.Bitmap
	consumed.AddRange(r)
	g.OnCommit("w1", &consumed)
	if got := g.ActiveSet("w1"); got != nil {
		t.Fatalf("ActiveSet = %v, want nil", got)
	}
	if got := g.Nodes(); len(got) != 0 {
		t.Fatalf("Nodes = %v, want empty", got)
	}
}

func TestReleaseNode(t *testing.T) {
	g := NewGenerator(nil)
	r, _ := g.Allocate(ctxb(), "w1", 100)
	got := g.ReleaseNode("w1")
	if len(got) != 1 || got[0] != r {
		t.Fatalf("ReleaseNode = %v, want [%v]", got, r)
	}
	if g.ActiveSet("w1") != nil {
		t.Fatal("active set not cleared after release")
	}
	if g.ReleaseNode("w1") != nil {
		t.Fatal("second release returned ranges")
	}
}

func TestAllocationLoggedAndRecovered(t *testing.T) {
	log := newLog(t)
	g := NewGenerator(log)
	r1, _ := g.Allocate(ctxb(), "w1", 100)
	r2, _ := g.Allocate(ctxb(), "w2", 50)

	// Crash: build a fresh generator and replay the log.
	g2 := NewGenerator(nil)
	err := log.Replay(ctxb(), func(rec wal.Record) error {
		if rec.Type != wal.RecAlloc {
			return nil
		}
		node, r, err := ParseAllocPayload(rec.Payload)
		if err != nil {
			return err
		}
		g2.ApplyAlloc(node, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.MaxAllocated(); got != r2.End {
		t.Fatalf("recovered MaxAllocated = %d, want %d", got, r2.End)
	}
	if got := g2.ActiveSet("w1"); len(got) != 1 || got[0] != r1 {
		t.Fatalf("recovered ActiveSet(w1) = %v", got)
	}
	// A post-recovery allocation must not reuse any key.
	r3, _ := g2.Allocate(ctxb(), "w1", 10)
	if r3.Start < r2.End {
		t.Fatalf("post-recovery range %v overlaps pre-crash allocations", r3)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	g := NewGenerator(nil)
	_, _ = g.Allocate(ctxb(), "w1", 100)
	r2, _ := g.Allocate(ctxb(), "w2", 50)
	c := g.Checkpoint()
	c.Active["w1"] = &rfrb.Bitmap{} // an emptied set is not carried over
	c, err := ParseCheckpoint(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGenerator(nil)
	g2.Restore(c)
	if g2.MaxAllocated() != g.MaxAllocated() {
		t.Fatalf("restored max = %d, want %d", g2.MaxAllocated(), g.MaxAllocated())
	}
	if got := g2.ActiveSet("w2"); len(got) != 1 || got[0] != r2 {
		t.Fatalf("restored ActiveSet(w2) = %v", got)
	}
	if got := g2.Nodes(); len(got) != 1 {
		t.Fatalf("restored nodes = %v, want [w2]", got)
	}
	// The restored generator keeps allocating past the restored maximum.
	if r, err := g2.Allocate(ctxb(), "w3", 1); err != nil || r.Start != g.MaxAllocated() {
		t.Fatalf("post-restore allocation %v: %v", r, err)
	}
}

func TestRestoreCheckpointRejectsCorrupt(t *testing.T) {
	if _, err := ParseCheckpoint([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	g := NewGenerator(nil)
	_, _ = g.Allocate(ctxb(), "w1", 10)
	p := g.Checkpoint().Marshal()
	for _, bad := range [][]byte{p[:len(p)-3], append(p, 0)} {
		if _, err := ParseCheckpoint(bad); err == nil {
			t.Fatalf("corrupt payload %x accepted", bad)
		}
	}
	// A node count past what the payload can hold fails before any loop.
	huge := append([]byte(nil), p[:12]...)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := ParseCheckpoint(huge); err == nil {
		t.Fatal("payload claiming 2^32-1 nodes accepted")
	}
}

func TestParseAllocPayloadErrors(t *testing.T) {
	if _, _, err := ParseAllocPayload(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, _, err := ParseAllocPayload([]byte{5, 0, 'a'}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	p := AllocPayload("node-1", rfrb.Range{Start: 10, End: 20})
	node, r, err := ParseAllocPayload(p)
	if err != nil || node != "node-1" || r != (rfrb.Range{Start: 10, End: 20}) {
		t.Fatalf("round trip: %q %v %v", node, r, err)
	}
}

func TestClientCachesRanges(t *testing.T) {
	g := NewGenerator(nil)
	var rpcs int
	c := NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		rpcs++
		return g.Allocate(ctx, "w1", n)
	})
	seen := make(map[uint64]bool)
	for i := 0; i < DefaultRangeSize*2; i++ {
		k, err := c.NextKey(ctxb())
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("key %d handed out twice", k)
		}
		seen[k] = true
	}
	// 256 default + 512 doubled covers 512 keys in 2 RPCs.
	if rpcs != 2 {
		t.Fatalf("rpcs = %d, want 2", rpcs)
	}
	refills, keys := c.Stats()
	if refills != 2 || keys != DefaultRangeSize*2 {
		t.Fatalf("Stats = %d, %d", refills, keys)
	}
}

func TestClientAdaptiveGrowth(t *testing.T) {
	g := NewGenerator(nil)
	var sizes []uint64
	c := NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		sizes = append(sizes, n)
		return g.Allocate(ctx, "w1", n)
	})
	// drain consumes keys until the client has refilled `refills` times.
	drain := func(refills int) {
		t.Helper()
		for len(sizes) < refills {
			if _, err := c.NextKey(ctxb()); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(5)
	if sizes[0] != DefaultRangeSize {
		t.Fatalf("first request = %d, want default", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1]*2 && sizes[i] != MaxRangeSize {
			t.Fatalf("sizes %v not doubling", sizes)
		}
	}
}

func TestClientPropagatesAllocError(t *testing.T) {
	sentinel := errors.New("coordinator down")
	c := NewClient(func(context.Context, uint64) (rfrb.Range, error) {
		return rfrb.Range{}, sentinel
	})
	if _, err := c.NextKey(ctxb()); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestConcurrentClientsNeverShareKeys(t *testing.T) {
	g := NewGenerator(nil)
	var mu sync.Mutex
	seen := make(map[uint64]string)
	var wg sync.WaitGroup
	for _, node := range []string{"w1", "w2", "w3", "w4"} {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			c := NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
				return g.Allocate(ctx, node, n)
			})
			for i := 0; i < 2000; i++ {
				k, err := c.NextKey(ctxb())
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if owner, dup := seen[k]; dup {
					mu.Unlock()
					t.Errorf("key %d handed to both %s and %s", k, owner, node)
					return
				}
				seen[k] = node
				mu.Unlock()
			}
		}(node)
	}
	wg.Wait()
	if len(seen) != 8000 {
		t.Fatalf("unique keys = %d, want 8000", len(seen))
	}
}

func TestPropertyUniquenessAcrossRandomAllocationSizes(t *testing.T) {
	f := func(sizes []uint16) bool {
		g := NewGenerator(nil)
		var prevEnd uint64
		for _, s := range sizes {
			n := uint64(s%100) + 1
			r, err := g.Allocate(ctxb(), "n", n)
			if err != nil {
				return false
			}
			if r.Start < prevEnd || r.Len() != n {
				return false
			}
			prevEnd = r.End
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseAllocPayload: an alloc payload parses to an error, never a
// panic, and one it accepts is exactly what AllocPayload writes for the
// node and range it parsed to.
func FuzzParseAllocPayload(f *testing.F) {
	f.Add(AllocPayload("node-1", rfrb.Range{Start: 10, End: 20}))
	f.Add(AllocPayload("", rfrb.Range{Start: 1 << 63, End: 1<<63 + 4096}))
	f.Add([]byte(nil))
	f.Add([]byte{5, 0, 'a'})
	f.Fuzz(func(t *testing.T, p []byte) {
		node, r, err := ParseAllocPayload(p)
		if err != nil {
			return
		}
		if again := AllocPayload(node, r); !bytes.Equal(again, p) {
			t.Fatalf("accepted %x as (%q, %v), which writes %x", p, node, r, again)
		}
	})
}
