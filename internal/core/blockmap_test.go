package core

import (
	"context"
	"testing"
	"testing/quick"

	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

func newCloudForBM(t *testing.T) (*CloudDbspace, *objstore.MemStore) {
	t.Helper()
	store := objstore.NewMem(objstore.Config{})
	return newCloudSpace(t, store), store
}

func TestBlockmapSetGet(t *testing.T) {
	ds, _ := newCloudForBM(t)
	bm, err := NewBlockmap(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Loc: rfrb.CloudKeyBase + 1, Size: 10}
	old, err := bm.Set(ctxb(), 0, e)
	if err != nil || !old.IsZero() {
		t.Fatalf("Set = %v, %v", old, err)
	}
	got, err := bm.Get(ctxb(), 0)
	if err != nil || got != e {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Unmapped pages return the zero entry.
	got, err = bm.Get(ctxb(), 3)
	if err != nil || !got.IsZero() {
		t.Fatalf("Get(unmapped) = %v, %v", got, err)
	}
	got, err = bm.Get(ctxb(), 1<<40)
	if err != nil || !got.IsZero() {
		t.Fatalf("Get(beyond capacity) = %v, %v", got, err)
	}
}

func TestBlockmapSetReturnsReplacedEntry(t *testing.T) {
	ds, _ := newCloudForBM(t)
	bm, _ := NewBlockmap(ds, 4)
	e1 := Entry{Loc: rfrb.CloudKeyBase + 1, Size: 1}
	e2 := Entry{Loc: rfrb.CloudKeyBase + 2, Size: 2}
	_, _ = bm.Set(ctxb(), 7, e1)
	old, err := bm.Set(ctxb(), 7, e2)
	if err != nil || old != e1 {
		t.Fatalf("replaced = %v, %v; want %v", old, err, e1)
	}
	old, err = bm.Delete(ctxb(), 7)
	if err != nil || old != e2 {
		t.Fatalf("Delete = %v, %v; want %v", old, err, e2)
	}
}

func TestBlockmapGrowsAcrossLevels(t *testing.T) {
	ds, _ := newCloudForBM(t)
	bm, _ := NewBlockmap(ds, 2) // tiny fanout exercises depth
	for i := uint64(0); i < 40; i++ {
		e := Entry{Loc: rfrb.CloudKeyBase + 100 + i, Size: uint32(i)}
		if _, err := bm.Set(ctxb(), i, e); err != nil {
			t.Fatal(err)
		}
	}
	if got := bm.Pages(); got != 40 {
		t.Fatalf("Pages = %d, want 40", got)
	}
	for i := uint64(0); i < 40; i++ {
		got, err := bm.Get(ctxb(), i)
		if err != nil || got.Loc != rfrb.CloudKeyBase+100+i {
			t.Fatalf("Get(%d) = %v, %v", i, got, err)
		}
	}
}

func TestBlockmapFlushAndReopen(t *testing.T) {
	ds, store := newCloudForBM(t)
	bm, _ := NewBlockmap(ds, 4)
	for i := uint64(0); i < 30; i++ {
		if _, err := bm.Set(ctxb(), i, Entry{Loc: rfrb.CloudKeyBase + 1000 + i, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	var rb, rf rfrb.Bitmap
	id, err := bm.Flush(ctxb(), BitmapSink{RB: &rb, RF: &rf})
	if err != nil {
		t.Fatal(err)
	}
	if id.Root.IsZero() || id.Pages != 30 {
		t.Fatalf("identity = %+v", id)
	}
	if !rf.Empty() {
		t.Fatalf("first flush freed %v", &rf)
	}
	if rb.Empty() {
		t.Fatal("first flush recorded no allocations")
	}
	objectsAfterFlush := store.Len()

	// Reopen from the identity and verify every mapping, reading blockmap
	// pages back from the object store.
	bm2, err := OpenBlockmap(ds, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		got, err := bm2.Get(ctxb(), i)
		if err != nil || got.Loc != rfrb.CloudKeyBase+1000+i {
			t.Fatalf("reopened Get(%d) = %v, %v", i, got, err)
		}
	}
	if store.Len() != objectsAfterFlush {
		t.Fatal("reads created objects")
	}
}

func TestBlockmapFlushCascadeVersionsPathToRoot(t *testing.T) {
	// Figure 2: dirtying one data page and flushing must version the leaf
	// and every ancestor up to the root — and never rewrite any object key.
	ds, _ := newCloudForBM(t)
	bm, _ := NewBlockmap(ds, 2)
	for i := uint64(0); i < 8; i++ {
		_, _ = bm.Set(ctxb(), i, Entry{Loc: rfrb.CloudKeyBase + 500 + i, Size: 1})
	}
	var rb0 rfrb.Bitmap
	id0, err := bm.Flush(ctxb(), BitmapSink{RB: &rb0})
	if err != nil {
		t.Fatal(err)
	}

	// Dirty exactly one page (like H -> H').
	if _, err := bm.Set(ctxb(), 7, Entry{Loc: rfrb.CloudKeyBase + 999, Size: 1}); err != nil {
		t.Fatal(err)
	}
	var rb, rf rfrb.Bitmap
	id1, err := bm.Flush(ctxb(), BitmapSink{RB: &rb, RF: &rf})
	if err != nil {
		t.Fatal(err)
	}
	if id1.Root == id0.Root {
		t.Fatal("root was not versioned by the cascade")
	}
	// With fanout 2 and 8 leaves, the tree has 3 levels of blockmap pages
	// above the data: leaf + 2 inner = path of 3 (one per level) rewritten.
	if got := rb.Count(); got != uint64(id1.Levels)+1 {
		t.Fatalf("flush allocated %d blockmap pages, want %d (path to root)", got, id1.Levels+1)
	}
	if got := rf.Count(); got != uint64(id1.Levels)+1 {
		t.Fatalf("flush freed %d superseded pages, want %d", got, id1.Levels+1)
	}
	// The freed extents are exactly a subset of the previous allocation.
	for _, r := range rf.Ranges() {
		for k := r.Start; k < r.End; k++ {
			if !rb0.Contains(k) {
				t.Fatalf("freed key %#x was not allocated by the previous flush", k)
			}
		}
	}
}

func TestBlockmapCleanFlushIsNoop(t *testing.T) {
	ds, store := newCloudForBM(t)
	bm, _ := NewBlockmap(ds, 4)
	_, _ = bm.Set(ctxb(), 0, Entry{Loc: rfrb.CloudKeyBase + 1, Size: 1})
	id1, err := bm.Flush(ctxb(), NopSink{})
	if err != nil {
		t.Fatal(err)
	}
	n := store.Len()
	id2, err := bm.Flush(ctxb(), NopSink{})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 || store.Len() != n {
		t.Fatalf("clean flush rewrote pages: %+v -> %+v", id1, id2)
	}
	if bm.Dirty() {
		t.Fatal("blockmap dirty after flush")
	}
}

func TestBlockmapForEach(t *testing.T) {
	ds, _ := newCloudForBM(t)
	bm, _ := NewBlockmap(ds, 3)
	want := map[uint64]uint64{}
	for _, i := range []uint64{0, 2, 9, 26, 5} {
		loc := rfrb.CloudKeyBase + 100 + i
		_, _ = bm.Set(ctxb(), i, Entry{Loc: loc, Size: 1})
		want[i] = loc
	}
	// Round trip through storage to exercise lazy loading during the walk.
	id, err := bm.Flush(ctxb(), NopSink{})
	if err != nil {
		t.Fatal(err)
	}
	bm2, _ := OpenBlockmap(ds, id)
	got := map[uint64]uint64{}
	var lastLogical uint64
	first := true
	err = bm2.ForEach(ctxb(), func(logical uint64, e Entry) error {
		if !first && logical <= lastLogical {
			t.Fatalf("ForEach out of order: %d after %d", logical, lastLogical)
		}
		first, lastLogical = false, logical
		got[logical] = e.Loc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %d = %#x, want %#x", k, got[k], v)
		}
	}
}

func TestBlockmapRejectsBadFanout(t *testing.T) {
	ds, _ := newCloudForBM(t)
	if _, err := NewBlockmap(ds, 1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := OpenBlockmap(ds, Identity{Fanout: 0}); err == nil {
		t.Fatal("identity with fanout 0 accepted")
	}
}

func TestBlockmapOnBlockDbspace(t *testing.T) {
	// Blockmaps also work on conventional dbspaces (the on-premise model).
	ds := newBlockSpace(t)
	bm, _ := NewBlockmap(ds, 4)
	for i := uint64(0); i < 10; i++ {
		if _, err := bm.Set(ctxb(), i, Entry{Loc: 100 + i, Blocks: 1, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	id, err := bm.Flush(ctxb(), NopSink{})
	if err != nil {
		t.Fatal(err)
	}
	bm2, _ := OpenBlockmap(ds, id)
	got, err := bm2.Get(ctxb(), 9)
	if err != nil || got.Loc != 109 {
		t.Fatalf("Get = %v, %v", got, err)
	}
}

func TestPropertyBlockmapMatchesMap(t *testing.T) {
	// Random Set/Delete/Flush/Reopen sequences must agree with a plain map.
	f := func(ops []uint16, fanoutSel uint8) bool {
		ds := newCloudSpace(nil, objstore.NewMem(objstore.Config{}))
		fanout := int(fanoutSel%6) + 2
		bm, err := NewBlockmap(ds, fanout)
		if err != nil {
			return false
		}
		ref := map[uint64]Entry{}
		ctx := context.Background()
		for i, op := range ops {
			logical := uint64(op % 300)
			switch op % 5 {
			case 0: // delete
				old, err := bm.Delete(ctx, logical)
				if err != nil || old != ref[logical] {
					return false
				}
				delete(ref, logical)
			case 4: // flush + reopen
				id, err := bm.Flush(ctx, NopSink{})
				if err != nil {
					return false
				}
				if bm, err = OpenBlockmap(ds, id); err != nil {
					return false
				}
			default: // set
				e := Entry{Loc: rfrb.CloudKeyBase + uint64(i) + 1, Size: uint32(i)}
				old, err := bm.Set(ctx, logical, e)
				if err != nil || old != ref[logical] {
					return false
				}
				ref[logical] = e
			}
		}
		for logical, want := range ref {
			got, err := bm.Get(ctx, logical)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
