package table

import (
	"testing"

	"cloudiq/internal/column"
)

// FuzzTableMeta: whatever bytes sit in a table's meta page, Open returns an
// error or a table whose Schema, Segments and Seg answer, and a writable one
// takes an Append of rows of its own schema and commits — never a panic or an
// out-of-memory. Seeds are the meta pages real tables commit: empty,
// segmented, and partitioned.
func FuzzTableMeta(f *testing.F) {
	for _, opts := range []Options{
		{SegRows: 100},
		{SegRows: 64, PartitionCol: "id", PartitionBounds: []int64{50, 150}},
	} {
		for _, rows := range []int{0, 250} {
			r := newRig(f)
			obj := r.object(f, 16)
			tbl, err := Create("t", obj, testSchema(), opts)
			if err != nil {
				f.Fatal(err)
			}
			if rows > 0 {
				if err := tbl.Append(ctxb(), makeBatch(f, rows, 0)); err != nil {
					f.Fatal(err)
				}
			}
			if _, err := tbl.Commit(ctxb()); err != nil {
				f.Fatal(err)
			}
			img, err := obj.Read(ctxb(), metaPage)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(img)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, writable := range []bool{false, true} {
			r := newRig(t)
			obj := r.object(t, 16)
			if err := obj.Write(ctxb(), metaPage, data); err != nil {
				t.Fatal(err)
			}
			tbl, err := Open(ctxb(), "t", obj, writable)
			if err != nil {
				continue
			}
			_, _, _ = tbl.Schema(), tbl.SegRows(), tbl.Rows()
			for i := range tbl.Segments() {
				_ = tbl.Seg(i)
			}
			if !writable {
				continue
			}
			if err := tbl.Append(ctxb(), rowsOf(tbl.Schema(), 3)); err != nil {
				continue
			}
			if _, err := tbl.Commit(ctxb()); err != nil {
				t.Fatalf("commit after a clean open and append: %v", err)
			}
		}
	})
}

// rowsOf returns n rows of schema s: each column's row i is i in its type.
func rowsOf(s Schema, n int) *Batch {
	b := NewBatch(s)
	for i := range n {
		for _, v := range b.Vecs {
			switch v.Typ {
			case column.Int64:
				v.AppendInt(int64(i))
			case column.Float64:
				v.AppendFloat(float64(i))
			case column.String:
				v.AppendStr(string(rune('a' + i)))
			}
		}
	}
	return b
}
