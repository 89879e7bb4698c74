package cloudiq

import (
	"bytes"
	"reflect"
	"testing"

	"cloudiq/internal/catalog"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/delta"
	"cloudiq/internal/table"
)

// commitMetas are the real and hostile commit metas FuzzCommitMeta starts
// from: a drop publication, a compaction's DeltaThrough publication and
// inserts of good rows, and inserts of the rows delta.DecodeInsert must
// refuse (internal/delta's hostile insertRecords).
func commitMetas() (good, bad []commitMeta) {
	one := func(rows *table.Batch) commitMeta {
		return commitMeta{inserts: []delta.InsertRecord{{Table: "t", Rows: rows}}}
	}
	id := core.Identity{Root: core.Entry{Loc: 7, Size: 1}, Pages: 1, Fanout: blockmapFanout, Levels: 1}
	good = []commitMeta{
		one(fillBatch(6, 100)),
		one(fillBatch(0, 0)),
		{pubs: []catalogPublication{{Name: "old", Dropped: true}}},
		{
			pubs:    []catalogPublication{{Name: "t", ID: id, DeltaThrough: 6}},
			inserts: []delta.InsertRecord{{Table: "t", Rows: fillBatch(2, 6)}, {Table: "u", Rows: fillBatch(1, 0)}},
		},
	}
	short := fillBatch(3, 0)
	short.Vecs[1].Str = short.Vecs[1].Str[:2]
	extra := fillBatch(2, 0)
	extra.Vecs = append(extra.Vecs, column.NewVector(column.Int64))
	retyped := fillBatch(2, 0)
	retyped.Vecs[1].Typ = column.Int64
	mixed := fillBatch(2, 0)
	mixed.Vecs[0].F64 = []float64{1, 2}
	unknown := fillBatch(2, 0)
	unknown.Schema.Cols[1].Typ, unknown.Vecs[1].Typ = 9, 9
	for _, rows := range []*table.Batch{
		nil, short, extra, retyped, mixed, unknown,
		{Schema: demoSchema(), Vecs: fillBatch(1, 0).Vecs[:1]},
		{Vecs: fillBatch(1, 0).Vecs},
	} {
		bad = append(bad, one(rows))
	}
	return good, bad
}

// TestDecodeCommitMeta: a real meta decodes to itself, and one whose rows
// the delta store could not land is refused whole.
func TestDecodeCommitMeta(t *testing.T) {
	good, bad := commitMetas()
	for i, m := range good {
		p, err := m.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if back, err := decodeCommitMeta(p); err != nil || !reflect.DeepEqual(back, m) {
			t.Errorf("meta %d: decoded %+v, err %v", i, back, err)
		}
	}
	for i, m := range bad {
		p, err := m.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCommitMeta(p); err == nil {
			t.Errorf("hostile meta %d accepted", i)
		}
	}
}

// FuzzCommitMeta: decodeCommitMeta on any bytes is an error, or a meta
// whose publications apply (or fail) without a panic, whose inserts
// delta.Store.Apply lands whole, and which re-encodes to an equal meta.
func FuzzCommitMeta(f *testing.F) {
	good, bad := commitMetas()
	for _, m := range append(good, bad...) {
		p, err := m.marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeCommitMeta(p)
		if err != nil {
			return
		}
		// A publication may name a table the empty catalog lacks: an error
		// is fine, a panic is not.
		db := &Database{cat: catalog.New(), delta: delta.NewStore()}
		_ = db.applyCommit(commitMeta{pubs: m.pubs}, 1)
		s := delta.NewStore()
		for _, ins := range m.inserts {
			before := s.LiveRows(ins.Table, 1)
			s.Apply(ins.Table, ins.Rows, 1)
			if got := s.LiveRows(ins.Table, 1) - before; got != ins.Rows.Rows() {
				t.Fatalf("insert of %d rows into %q landed %d", ins.Rows.Rows(), ins.Table, got)
			}
		}
		again, err := m.marshal()
		if err != nil {
			t.Fatalf("accepted meta does not re-encode: %v", err)
		}
		back, err := decodeCommitMeta(again)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("re-encoded meta differs (err %v):\n%+v\n%+v", err, back, m)
		}
	})
}

// imageParts is a real catalog image and a real residual-delta image: a
// table with bulk-loaded rows and trickle rows not yet drained.
func imageParts(tb testing.TB) (catImg, deltaImg []byte) {
	tb.Helper()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	db, err := Open(ctxb(), Config{})
	must(err)
	defer func() { _ = db.Close() }()
	must(db.AttachCloudDbspace("user", NewMemObjectStore(ObjectStoreConfig{}), CloudOptions{}))
	tx := db.Begin()
	tbl, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
	must(err)
	must(tbl.Append(ctxb(), fillBatch(40, 0)))
	must(tx.Commit(ctxb()))
	w := db.Begin()
	must(w.Insert(ctxb(), "t", fillBatch(5, 100)))
	must(w.Commit(ctxb()))
	catImg, err = db.cat.Marshal()
	must(err)
	deltaImg, err = db.delta.Marshal()
	must(err)
	return catImg, deltaImg
}

// FuzzMetaImage: the checkpoint extra image RestoreExtra decodes. Any bytes
// are an error, or an image whose catalog and delta parts catalog.Unmarshal
// and delta.Store.Restore take or refuse without a panic, and which
// re-encodes to an equal image.
func FuzzMetaImage(f *testing.F) {
	catImg, deltaImg := imageParts(f)
	for _, mi := range []metaImage{{Catalog: catImg, Delta: deltaImg}, {Catalog: catImg}, {}} {
		img, err := encodeImage(mi)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		mi, err := decodeImage[metaImage]("checkpoint image", img)
		if err != nil {
			return
		}
		// Either part may be refused: an error is fine, a panic is not.
		_, _ = catalog.Unmarshal(mi.Catalog)
		_ = delta.NewStore().Restore(mi.Delta)
		again, err := encodeImage(mi)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		back, err := decodeImage[metaImage]("checkpoint image", again)
		if err != nil || !bytes.Equal(back.Catalog, mi.Catalog) || !bytes.Equal(back.Delta, mi.Delta) {
			t.Fatalf("re-encoded image differs (err %v)", err)
		}
	})
}

// FuzzSysImage: the snapshot system image RestoreSnapshot decodes. Any
// bytes are an error, or an image whose delta part delta.Store.Restore
// takes or refuses without a panic, and which re-encodes to an equal image.
func FuzzSysImage(f *testing.F) {
	_, deltaImg := imageParts(f)
	for _, sys := range []sysImage{{Seq: 9, Delta: deltaImg}, {Seq: 1}} {
		img, err := encodeImage(sys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		sys, err := decodeImage[sysImage]("snapshot system image", img)
		if err != nil {
			return
		}
		_ = delta.NewStore().Restore(sys.Delta) // refused or restored, never a panic
		again, err := encodeImage(sys)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		back, err := decodeImage[sysImage]("snapshot system image", again)
		if err != nil || back.Seq != sys.Seq || !bytes.Equal(back.Delta, sys.Delta) {
			t.Fatalf("re-encoded image differs (err %v)", err)
		}
	})
}
