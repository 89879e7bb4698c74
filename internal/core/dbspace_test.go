package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
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
// ensureLoaded unwraps its read.
func writeOne(ds Dbspace, data []byte) (Entry, error) {
	return one(ds.WriteBatch(ctxb(), [][]byte{data}, nil, WriteThrough))
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
	// First write: two failures then success (defaultWriteRetries is 3).
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

// TestKeyNamerGolden pins both name forms for fixed keys. Object names are
// stored keys (blockmaps, RF/RB bitmaps, the OCM), so they must not move;
// the values were recorded from the fmt.Sprintf form Name replaced.
func TestKeyNamerGolden(t *testing.T) {
	for _, c := range []struct {
		key                uint64
		hashed, sequential string
	}{
		{0x0, "28e8/0000000000000000", "seq/0000000000000000"},
		{0x1, "2245/0000000000000001", "seq/0000000000000001"},
		{0x2, "e752/0000000000000002", "seq/0000000000000002"},
		{0x65, "0fa1/0000000000000065", "seq/0000000000000065"},
		{0xdeadbeef, "c203/00000000deadbeef", "seq/00000000deadbeef"},
		{0x100000000, "2a00/0000000100000000", "seq/0000000100000000"},
		{0x7fffffffffffffff, "8c39/7fffffffffffffff", "seq/7fffffffffffffff"},
		{0x8000000000000000, "c05f/8000000000000000", "seq/8000000000000000"},
		{0x8000000000000001, "86d3/8000000000000001", "seq/8000000000000001"},
		{0x8000000000001000, "b116/8000000000001000", "seq/8000000000001000"},
		{0xffffffffffffffff, "06a2/ffffffffffffffff", "seq/ffffffffffffffff"},
		{0x123456789abcdef, "b6c3/0123456789abcdef", "seq/0123456789abcdef"},
	} {
		if got := (KeyNamer{}).Name(c.key); got != c.hashed {
			t.Errorf("Name(%#x) = %q, want %q", c.key, got, c.hashed)
		}
		if got := (KeyNamer{Sequential: true}).Name(c.key); got != c.sequential {
			t.Errorf("sequential Name(%#x) = %q, want %q", c.key, got, c.sequential)
		}
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

// TestBlockRewriteInPlace covers WriteBatch's previous entries (§3.1): a
// conventional dbspace overwrites a page's run when the page still fits it,
// allocates a fresh run when it does not or has none, keeps a reused run
// allocated when its write fails, and a cloud dbspace ignores them.
func TestBlockRewriteInPlace(t *testing.T) {
	ds := newBlockSpace(t)
	e, err := writeOne(ds, make([]byte, 1000)) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	inUse := ds.Freelist().InUse()
	e2, err := one(ds.WriteBatch(ctxb(), [][]byte{[]byte("small")}, []Entry{e}, WriteThrough))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Loc != e.Loc || e2.Blocks != e.Blocks || e2.Size != 5 {
		t.Fatalf("in-place entry = %v, previous %v", e2, e)
	}
	if got := ds.Freelist().InUse(); got != inUse {
		t.Fatalf("in-place rewrite changed allocation: %d != %d", got, inUse)
	}
	got, err := readOne(ds, e2)
	if err != nil || string(got) != "small" {
		t.Fatalf("read after rewrite = %q, %v", got, err)
	}

	// A mixed batch: in place, grown past its run, and no previous entry.
	a, err := writeOne(ds, make([]byte, 600)) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	inUse = ds.Freelist().InUse()
	pages := [][]byte{
		bytes.Repeat([]byte{1}, 1024),  // fills a's two blocks
		bytes.Repeat([]byte{2}, 512*3), // outgrows e2's two blocks
		bytes.Repeat([]byte{3}, 100),   // new
		{},                             // new and empty: not block 0
	}
	out, err := ds.WriteBatch(ctxb(), pages, []Entry{a, e2, {}, {}}, WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != (Entry{Loc: a.Loc, Size: 1024, Blocks: 2}) {
		t.Fatalf("in-place item = %v, previous %v", out[0], a)
	}
	if out[1].Loc == e2.Loc || out[1].Blocks != 3 || out[2].Blocks != 1 || out[3].Loc == e.Loc || out[3].Blocks != 1 {
		t.Fatalf("fresh items = %v", out[1:])
	}
	if got := ds.Freelist().InUse(); got != inUse+3+1+1 {
		t.Fatalf("InUse = %d after the mixed batch, want %d: only the three fresh runs allocate", got, inUse+5)
	}
	for i, want := range pages {
		if got, err := readOne(ds, out[i]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("item %d read back %d bytes, %v", i, len(got), err)
		}
	}

	// A failed in-place write returns a zero entry and leaves its run
	// allocated: the page still owns it. A failed fresh write releases its.
	plan := faultinject.New(1)
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 20, Faults: plan})
	fds, err := NewBlock(BlockConfig{Name: "faulty", Device: dev, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	f, err := writeOne(fds, make([]byte, 700))
	if err != nil {
		t.Fatal(err)
	}
	inUse = fds.Freelist().InUse()
	plan.Always(faultinject.DevWrite)
	out, err = fds.WriteBatch(ctxb(), [][]byte{{4}, {5}}, []Entry{f, {}}, WriteThrough)
	if errs := pageio.ItemErrors(err, 2); errs[0] == nil || errs[1] == nil {
		t.Fatalf("write under a device fault = %v", err)
	}
	if out[0] != (Entry{}) || out[1] != (Entry{}) {
		t.Fatalf("failed items returned %v", out)
	}
	if got := fds.Freelist().InUse(); got != inUse {
		t.Fatalf("InUse = %d after the failed batch, want %d", got, inUse)
	}
	plan.Clear(faultinject.DevWrite)
	if got, err := readOne(fds, f); err != nil || len(got) != 700 {
		t.Fatalf("the page's run after the failed rewrite: %d bytes, %v", len(got), err)
	}

	// A cloud dbspace given a previous entry still writes a fresh key.
	cds := newCloudSpace(t, objstore.NewMem(objstore.Config{}))
	c, err := writeOne(cds, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := one(cds.WriteBatch(ctxb(), [][]byte{[]byte("v2")}, []Entry{c}, WriteThrough))
	if err != nil || c2.Loc == c.Loc || !c2.IsCloud() {
		t.Fatalf("cloud rewrite of %v = %v, %v", c, c2, err)
	}
	if got, err := readOne(cds, c); err != nil || string(got) != "v1" {
		t.Fatalf("the previous key reads %q, %v", got, err)
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
