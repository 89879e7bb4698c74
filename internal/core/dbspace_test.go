package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

func ctxb() context.Context { return context.Background() }

func newCloudSpace(t *testing.T, store objstore.Store) *CloudDbspace {
	if t != nil {
		t.Helper()
	}
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "node", n)
	})
	return NewCloud(CloudConfig{Name: "cloud", Store: store, Keys: client})
}

func newBlockSpace(t *testing.T) *BlockDbspace {
	t.Helper()
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 20})
	ds, err := NewBlock(BlockConfig{Name: "main", Device: dev, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// writeOne and readOne are the batch calls at one item, unwrapped the way
// ensureLoaded and Rewrite's fallback unwrap theirs.
func writeOne(ds Dbspace, data []byte) (Entry, error) {
	return one(ds.WriteBatch(ctxb(), [][]byte{data}, WriteThrough))
}

func readOne(ds Dbspace, e Entry) ([]byte, error) {
	return one(ds.ReadBatch(ctxb(), []Entry{e}))
}

func TestCloudWriteReadRoundTrip(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	ds := newCloudSpace(t, store)
	e, err := writeOne(ds, []byte("page contents"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsCloud() {
		t.Fatalf("entry %v not classified as cloud", e)
	}
	got, err := readOne(ds, e)
	if err != nil || string(got) != "page contents" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestCloudNeverWritesAKeyTwice(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	ds := newCloudSpace(t, store)
	seen := make(map[uint64]bool)
	for i := 0; i < 500; i++ {
		e, err := writeOne(ds, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.Loc] {
			t.Fatalf("key %#x used twice", e.Loc)
		}
		seen[e.Loc] = true
	}
	if got := store.Len(); got != 500 {
		t.Fatalf("store has %d objects, want 500", got)
	}
}

func TestCloudReadRetriesEventualConsistency(t *testing.T) {
	// The store hides fresh objects from the first 3 reads; the dbspace
	// must retry until found.
	store := objstore.NewMem(objstore.Config{Consistency: objstore.Consistency{NewKeyMissReads: 3}})
	ds := newCloudSpace(t, store)
	e, err := writeOne(ds, []byte("eventually"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readOne(ds, e)
	if err != nil || string(got) != "eventually" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if misses := store.Metrics().GetMisses(); misses != 3 {
		t.Fatalf("misses = %d, want 3", misses)
	}
}

func TestCloudReadRetryBudgetExhausted(t *testing.T) {
	store := objstore.NewMem(objstore.Config{Consistency: objstore.Consistency{NewKeyMissReads: 50}})
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "node", n)
	})
	ds := NewCloud(CloudConfig{Name: "cloud", Store: store, Keys: client, ReadRetries: 4})
	e, err := writeOne(ds, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// A one-element read reports the item's own error: the sentinel is still
	// reachable and the dbspace still names the key it could not find.
	_, err = readOne(ds, e)
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrNotFound", err)
	}
	if want := fmt.Sprintf("dbspace cloud: read key %#x: ", e.Loc); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %q, want it to start %q", err, want)
	}
}

func TestCloudWriteRetriesThenFails(t *testing.T) {
	plan := faultinject.New(1)
	plan.FailNext(faultinject.ObjPut, 2)
	store := objstore.NewMem(objstore.Config{Faults: plan})
	ds := newCloudSpace(t, store)
	// First write: two failures then success (WriteRetries default 3).
	if _, err := writeOne(ds, []byte("x")); err != nil {
		t.Fatalf("write with transient failures: %v", err)
	}
	// Now make every put fail: budget exhausts.
	plan.Always(faultinject.ObjPut)
	if _, err := writeOne(ds, []byte("y")); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

func TestCloudReadSizeMismatchDetected(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	ds := newCloudSpace(t, store)
	e, err := writeOne(ds, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	e.Size = 99
	if _, err := readOne(ds, e); err == nil || !strings.Contains(err.Error(), "entry says") {
		t.Fatalf("size mismatch not detected: %v", err)
	}
}

func TestCloudReadRejectsBlockEntry(t *testing.T) {
	ds := newCloudSpace(t, objstore.NewMem(objstore.Config{}))
	if _, err := readOne(ds, Entry{Loc: 5, Blocks: 1}); err == nil {
		t.Fatal("block entry accepted by cloud dbspace")
	}
}

func TestCloudReclaimDeletesAndPollsIdempotently(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	ds := newCloudSpace(t, store)
	var entries []Entry
	for i := 0; i < 10; i++ {
		e, err := writeOne(ds, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	// Reclaim a range wider than what was flushed: unconsumed keys are
	// polled harmlessly (Table 1, clock 150).
	r := rfrb.Range{Start: entries[0].Loc, End: entries[9].Loc + 100}
	if err := ds.Reclaim(ctxb(), r); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 0 {
		t.Fatalf("store has %d objects after reclaim, want 0", got)
	}
	// Reclaiming again is idempotent.
	if err := ds.Reclaim(ctxb(), r); err != nil {
		t.Fatal(err)
	}
	// Non-cloud ranges are rejected.
	if err := ds.Reclaim(ctxb(), rfrb.Range{Start: 1, End: 2}); err == nil {
		t.Fatal("block range accepted by cloud reclaim")
	}
}

func TestKeyNamerHashedSpreadsPrefixes(t *testing.T) {
	n := KeyNamer{}
	prefixes := make(map[string]bool)
	for i := uint64(0); i < 1000; i++ {
		name := n.Name(rfrb.CloudKeyBase + i)
		parts := strings.SplitN(name, "/", 2)
		if len(parts) != 2 {
			t.Fatalf("name %q has no prefix", name)
		}
		prefixes[parts[0]] = true
	}
	if len(prefixes) < 250 {
		t.Fatalf("only %d distinct prefixes for 1000 consecutive keys", len(prefixes))
	}
	seq := KeyNamer{Sequential: true}
	if got := seq.Name(42); got != "seq/000000000000002a" {
		t.Fatalf("sequential name = %q", got)
	}
}

func TestBlockWriteReadRoundTrip(t *testing.T) {
	ds := newBlockSpace(t)
	e, err := writeOne(ds, []byte("conventional page"))
	if err != nil {
		t.Fatal(err)
	}
	if e.IsCloud() || e.Blocks != 1 {
		t.Fatalf("entry = %v", e)
	}
	got, err := readOne(ds, e)
	if err != nil || string(got) != "conventional page" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestBlockMultiBlockPages(t *testing.T) {
	ds := newBlockSpace(t)
	data := make([]byte, 512*3+10) // needs 4 blocks
	for i := range data {
		data[i] = byte(i)
	}
	e, err := writeOne(ds, data)
	if err != nil {
		t.Fatal(err)
	}
	if e.Blocks != 4 {
		t.Fatalf("Blocks = %d, want 4", e.Blocks)
	}
	got, err := readOne(ds, e)
	if err != nil || len(got) != len(data) || got[len(got)-1] != data[len(data)-1] {
		t.Fatalf("round trip failed: %d bytes, %v", len(got), err)
	}
}

func TestBlockPageTooLarge(t *testing.T) {
	ds := newBlockSpace(t)
	if _, err := writeOne(ds, make([]byte, 512*17)); err == nil {
		t.Fatal("17-block page accepted (max is 16)")
	}
}

func TestBlockRewriteInPlace(t *testing.T) {
	ds := newBlockSpace(t)
	e, err := writeOne(ds, make([]byte, 1000)) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	inUse := ds.Freelist().InUse()
	e2, inPlace, err := ds.Rewrite(ctxb(), e, []byte("small"))
	if err != nil || !inPlace {
		t.Fatalf("Rewrite = %v, %v, %v", e2, inPlace, err)
	}
	if e2.Loc != e.Loc || e2.Size != 5 {
		t.Fatalf("in-place entry = %v", e2)
	}
	if got := ds.Freelist().InUse(); got != inUse {
		t.Fatalf("in-place rewrite changed allocation: %d != %d", got, inUse)
	}
	got, err := readOne(ds, e2)
	if err != nil || string(got) != "small" {
		t.Fatalf("read after rewrite = %q, %v", got, err)
	}
	// A larger image no longer fits: fresh allocation.
	e3, inPlace, err := ds.Rewrite(ctxb(), e2, make([]byte, 512*3))
	if err != nil || inPlace {
		t.Fatalf("grow rewrite = %v, %v, %v", e3, inPlace, err)
	}
	if e3.Loc == e2.Loc {
		t.Fatal("grow rewrite reused the old location")
	}
}

func TestBlockReclaimReleasesBlocks(t *testing.T) {
	ds := newBlockSpace(t)
	e, _ := writeOne(ds, make([]byte, 1024))
	if err := ds.Reclaim(ctxb(), e.Span()); err != nil {
		t.Fatal(err)
	}
	if got := ds.Freelist().InUse(); got != 0 {
		t.Fatalf("InUse after reclaim = %d, want 0", got)
	}
	// Idempotent.
	if err := ds.Reclaim(ctxb(), e.Span()); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSpaceExhaustion(t *testing.T) {
	dev := blockdev.NewMem(blockdev.Config{Capacity: 4 * 512})
	ds, err := NewBlock(BlockConfig{Name: "tiny", Device: dev, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeOne(ds, make([]byte, 512*4)); err != nil {
		t.Fatal(err)
	}
	if _, err := writeOne(ds, []byte("x")); err == nil {
		t.Fatal("write on full dbspace succeeded")
	}
}

func TestNewBlockValidation(t *testing.T) {
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1024})
	if _, err := NewBlock(BlockConfig{Name: "bad", Device: dev, BlockSize: 0}); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewBlock(BlockConfig{Name: "bad", Device: dev, BlockSize: 2048}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestEntryStringAndSpan(t *testing.T) {
	free := Entry{}
	if free.String() != "<free>" || !free.IsZero() {
		t.Fatalf("zero entry: %v", free)
	}
	blk := Entry{Loc: 7, Blocks: 3, Size: 100}
	if blk.Span() != (rfrb.Range{Start: 7, End: 10}) {
		t.Fatalf("block span = %v", blk.Span())
	}
	obj := Entry{Loc: rfrb.CloudKeyBase + 5, Size: 10}
	if obj.Span().Len() != 1 {
		t.Fatalf("cloud span = %v", obj.Span())
	}
	if !strings.Contains(obj.String(), "obj") || !strings.Contains(blk.String(), "blk") {
		t.Fatalf("Strings: %v, %v", obj, blk)
	}
}

// TestEntryMarshalRoundTrip pins the 16-byte entry a blockmap page stores.
func TestEntryMarshalRoundTrip(t *testing.T) {
	e := Entry{Loc: rfrb.CloudKeyBase + 99, Size: 12345, Blocks: 3, Flags: 7}
	buf := make([]byte, EntrySize)
	e.encode(buf)
	if got := decodeEntry(buf); got != e {
		t.Fatalf("round trip = %v, want %v", got, e)
	}
}

func TestBitmapSink(t *testing.T) {
	var rb, rf rfrb.Bitmap
	sink := BitmapSink{RB: &rb, RF: &rf}
	sink.NoteAllocated(Entry{Loc: 10, Blocks: 4})
	sink.NoteFreed(Entry{Loc: rfrb.CloudKeyBase + 3, Size: 1})
	if rb.Count() != 4 || !rb.Contains(13) {
		t.Fatalf("RB = %v", &rb)
	}
	if rf.Count() != 1 || !rf.Contains(rfrb.CloudKeyBase+3) {
		t.Fatalf("RF = %v", &rf)
	}
	// Nil bitmaps and NopSink must not panic.
	BitmapSink{}.NoteAllocated(Entry{Loc: 1, Blocks: 1})
	NopSink{}.NoteFreed(Entry{Loc: 1, Blocks: 1})
}
