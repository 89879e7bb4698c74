package cloudiq

import (
	"bytes"
	"maps"
	"testing"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
)

// TestEveryConfigStoresCompressedPages: every page is stored deflated,
// whatever Config.Compress says. The same rows loaded with the flag unset,
// false and true store the same objects, byte for byte; each column page's
// object is what FlateCodec.Decompress turns into the page the table reads;
// and a forced pushdown, which inflates those objects store-side, returns
// the rows a plain scan does.
func TestEveryConfigStoresCompressedPages(t *testing.T) {
	schema := Schema{Cols: []ColumnDef{
		{Name: "k", Typ: Int64},
		{Name: "price", Typ: Float64},
		{Name: "v", Typ: String},
	}}
	rows := NewBatch(schema)
	for i := range 500 {
		rows.Vecs[0].AppendInt(int64(i))
		rows.Vecs[1].AppendFloat(float64(i%97) / 4) // exact decimals: stored as n-bit integers
		rows.Vecs[2].AppendStr([]string{"red", "green", "blue"}[i%3])
	}
	cols := []string{"k", "price", "v"}
	filter := Lt(Col("k"), ConstI(120))

	var first map[string][]byte
	for _, cfg := range []Config{{}, {Compress: false}, {Compress: true}} {
		store := NewMemObjectStore(ObjectStoreConfig{})
		db, err := Open(ctxb(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		w, err := tx.CreateTable(ctxb(), "user", "t", schema, TableOptions{SegRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(ctxb(), rows); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctxb()); err != nil {
			t.Fatal(err)
		}

		keys, err := store.List(ctxb(), "")
		if err != nil {
			t.Fatal(err)
		}
		objects := make(map[string][]byte, len(keys))
		for _, k := range keys {
			if objects[k], err = store.Get(ctxb(), k); err != nil {
				t.Fatal(err)
			}
		}
		if first == nil {
			first = objects
		} else if !maps.EqualFunc(first, objects, bytes.Equal) {
			t.Fatalf("Compress %v stored other objects than Config{}: %d against %d", cfg.Compress, len(objects), len(first))
		}

		r := db.Begin()
		tbl, err := r.Table(ctxb(), "user", "t")
		if err != nil {
			t.Fatal(err)
		}
		ds := db.spaces["user"].(*core.CloudDbspace)
		bm, err := core.OpenBlockmap(ds, tbl.Identity())
		if err != nil {
			t.Fatal(err)
		}
		all := []int{0, 1, 2}
		for seg := range tbl.Segments() {
			pages, _, err := tbl.ReadSegmentPages(ctxb(), seg, all)
			if err != nil {
				t.Fatal(err)
			}
			for c, page := range pages {
				// Page 0 is the table's meta page; then one page per
				// (segment, column).
				e, err := bm.Get(ctxb(), uint64(1+seg*len(all)+c))
				if err != nil {
					t.Fatal(err)
				}
				got, err := buffer.FlateCodec{}.Decompress(objects[ds.ObjectKey(e.Loc)])
				if err != nil || !bytes.Equal(got, page) {
					t.Fatalf("segment %d column %d: stored object does not inflate to the page (%v)", seg, c, err)
				}
			}
		}

		scan := func(mode PushdownMode) *Batch {
			src, err := Scan(tbl, cols, ScanOptions{Filter: filter, Pushdown: mode})
			if err != nil {
				t.Fatal(err)
			}
			out, err := Collect(ctxb(), src)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		selects := store.Metrics().Selects()
		plain, pushed := scan(PushdownOff), scan(PushdownForce)
		if store.Metrics().Selects() == selects {
			t.Fatal("the forced pushdown never reached the store")
		}
		if plain.Rows() != 120 || pushed.Rows() != plain.Rows() {
			t.Fatalf("plain scan %d rows, pushdown %d, want 120", plain.Rows(), pushed.Rows())
		}
		for c := range cols {
			if !bytes.Equal(column.EncodeSegment(plain.Vecs[c]), column.EncodeSegment(pushed.Vecs[c])) {
				t.Fatalf("column %s: pushdown returned other values than the plain scan", cols[c])
			}
		}
		_ = r.Rollback(ctxb())
		_ = db.Close()
	}
}
