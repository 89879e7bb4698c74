package core

import (
	"context"
	"testing"

	"cloudiq/internal/rfrb"
)

// pageDs is a dbspace in memory for FuzzOpenBlockmap: a written page reads
// back from its entry, and every other entry reads as the fuzzed page.
type pageDs struct {
	page    []byte
	written map[uint64][]byte
}

func (d *pageDs) Name() string  { return "fuzz" }
func (d *pageDs) IsCloud() bool { return true }

func (d *pageDs) WriteBatch(_ context.Context, pages [][]byte, _ []Entry, _ WriteMode) ([]Entry, error) {
	entries := make([]Entry, len(pages))
	for i, p := range pages {
		loc := rfrb.CloudKeyBase + 1<<40 + uint64(len(d.written))
		d.written[loc] = p
		entries[i] = Entry{Loc: loc, Size: uint32(len(p))}
	}
	return entries, nil
}

func (d *pageDs) ReadBatch(_ context.Context, entries []Entry) ([][]byte, error) {
	out := make([][]byte, len(entries))
	for i, e := range entries {
		if p, ok := d.written[e.Loc]; ok {
			out[i] = p
		} else {
			out[i] = d.page
		}
	}
	return out, nil
}

func (d *pageDs) FlushForCommit(context.Context, []rfrb.Range) error { return nil }
func (d *pageDs) Reclaim(context.Context, rfrb.Range) error          { return nil }

// FuzzOpenBlockmap opens a blockmap from a fuzzed identity whose root (and
// every other unwritten page) reads as the fuzzed bytes, then maps one page,
// flushes and reopens. The identity comes from a commit record or a catalog
// image and the node pages from storage, so any of them may be corrupt: each
// step may fail, none may panic or exhaust memory, and a page that was mapped
// and flushed reads back through the reopened tree.
func FuzzOpenBlockmap(f *testing.F) {
	ds := &pageDs{written: map[uint64][]byte{}}
	bm, err := NewBlockmap(ds, 4)
	if err != nil {
		f.Fatal(err)
	}
	for l := uint64(0); l < 20; l++ {
		if _, err := bm.Set(ctxb(), l, Entry{Loc: rfrb.CloudKeyBase + l, Size: 1}); err != nil {
			f.Fatal(err)
		}
	}
	id, err := bm.Flush(ctxb(), NopSink{})
	if err != nil {
		f.Fatal(err)
	}
	root := ds.written[id.Root.Loc]
	f.Add(id.Fanout, id.Levels, id.Pages, id.Root.Loc, root, uint64(7))
	f.Add(id.Fanout, uint32(0), id.Pages, id.Root.Loc, root, uint64(1000))
	f.Add(uint32(64), uint32(0), uint64(0), uint64(0), []byte{}, uint64(3))
	// A fanout of 2^32-1 once made OpenBlockmap allocate a 64 GiB root node:
	// the process died of out-of-memory, which no recover catches.
	f.Add(uint32(1<<32-1), uint32(3), uint64(0), uint64(0), []byte{}, uint64(0))
	// The last logical page number once grew the tree forever.
	f.Add(uint32(2), uint32(0), uint64(0), uint64(0), []byte{}, ^uint64(0))
	f.Fuzz(func(t *testing.T, fanout, levels uint32, pages, rootLoc uint64, page []byte, logical uint64) {
		ds := &pageDs{page: page, written: map[uint64][]byte{}}
		id := Identity{Root: Entry{Loc: rootLoc, Size: uint32(len(page))}, Pages: pages, Fanout: fanout, Levels: levels}
		bm, err := OpenBlockmap(ds, id)
		if err != nil {
			return
		}
		_, _ = bm.Get(ctxb(), logical)
		e := Entry{Loc: rfrb.CloudKeyBase + 1, Size: 1}
		if _, err := bm.Set(ctxb(), logical, e); err != nil {
			return
		}
		if got, err := bm.Get(ctxb(), logical); err != nil || got != e {
			t.Fatalf("Get(%d) after Set = %v, %v", logical, got, err)
		}
		id, err = bm.Flush(ctxb(), NopSink{})
		if err != nil {
			t.Fatalf("Flush after a successful Set: %v", err)
		}
		if bm, err = OpenBlockmap(ds, id); err != nil {
			t.Fatalf("reopen %+v: %v", id, err)
		}
		if got, err := bm.Get(ctxb(), logical); err != nil || got != e {
			t.Fatalf("Get(%d) after reopen = %v, %v", logical, got, err)
		}
	})
}
