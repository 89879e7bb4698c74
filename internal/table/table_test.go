package table

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/keygen"
	"cloudiq/internal/objstore"
	"cloudiq/internal/rfrb"
)

func ctxb() context.Context { return context.Background() }

type rig struct {
	store *objstore.MemStore
	ds    *core.CloudDbspace
	pool  *buffer.Pool
	rb    *rfrb.Bitmap
	rf    *rfrb.Bitmap
}

func newRig(t *testing.T) *rig {
	t.Helper()
	store := objstore.NewMem(objstore.Config{Consistency: objstore.Consistency{NewKeyMissReads: 1}})
	gen := keygen.NewGenerator(nil)
	client := keygen.NewClient(func(ctx context.Context, n uint64) (rfrb.Range, error) {
		return gen.Allocate(ctx, "node", n)
	})
	return &rig{
		store: store,
		ds:    core.NewCloud(core.CloudConfig{Name: "user", Store: store, Keys: client}),
		pool:  buffer.NewPool(buffer.Config{Capacity: 8 << 20}),
		rb:    &rfrb.Bitmap{},
		rf:    &rfrb.Bitmap{},
	}
}

func (r *rig) object(t *testing.T, fanout int) *buffer.Object {
	t.Helper()
	bm, err := core.NewBlockmap(r.ds, fanout)
	if err != nil {
		t.Fatal(err)
	}
	return r.pool.OpenObject(r.ds, bm, core.LockedSink(core.BitmapSink{RB: r.rb, RF: r.rf}), buffer.FlateCodec{})
}

func testSchema() Schema {
	return Schema{Cols: []ColumnDef{
		{Name: "id", Typ: column.Int64},
		{Name: "price", Typ: column.Float64},
		{Name: "region", Typ: column.String},
		{Name: "shipdate", Typ: column.Int64, Date: true},
	}}
}

func makeBatch(t *testing.T, n int, idBase int64) *Batch {
	t.Helper()
	b := NewBatch(testSchema())
	regions := []string{"ASIA", "EUROPE", "AMERICA"}
	for i := 0; i < n; i++ {
		b.Vecs[0].AppendInt(idBase + int64(i))
		b.Vecs[1].AppendFloat(float64(i) * 1.5)
		b.Vecs[2].AppendStr(regions[i%3])
		b.Vecs[3].AppendInt(10000 + int64(i%100))
	}
	return b
}

func TestCreateAppendCommitRead(t *testing.T) {
	r := newRig(t)
	tbl, err := Create("t", r.object(t, 16), testSchema(), Options{SegRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), makeBatch(t, 250, 0)); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != 250 {
		t.Fatalf("Rows = %d", got)
	}
	id, err := tbl.Commit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Segments() != 3 { // 100 + 100 + 50
		t.Fatalf("Segments = %d", tbl.Segments())
	}
	if tbl.Seg(2).Rows != 50 {
		t.Fatalf("last segment rows = %d", tbl.Seg(2).Rows)
	}

	// Reopen read-only from the identity with a cold pool.
	bm, err := core.OpenBlockmap(r.ds, id)
	if err != nil {
		t.Fatal(err)
	}
	cold := buffer.NewPool(buffer.Config{Capacity: 8 << 20})
	obj := cold.OpenObject(r.ds, bm, nil, buffer.FlateCodec{})
	tbl2, err := Open(ctxb(), "t", obj, false)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Rows() != 250 || tbl2.Segments() != 3 {
		t.Fatalf("reopened: rows %d segs %d", tbl2.Rows(), tbl2.Segments())
	}
	batch, err := tbl2.ReadSegment(ctxb(), 1, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rows() != 100 {
		t.Fatalf("segment rows = %d", batch.Rows())
	}
	if batch.Vecs[0].I64[0] != 100 {
		t.Fatalf("first id of segment 1 = %d", batch.Vecs[0].I64[0])
	}
	if batch.Vecs[1].Str[0] != "EUROPE" { // row 100: 100%3 == 1
		t.Fatalf("region = %q", batch.Vecs[1].Str[0])
	}
}

func TestZoneMapsPerSegment(t *testing.T) {
	r := newRig(t)
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{SegRows: 100})
	_ = tbl.Append(ctxb(), makeBatch(t, 200, 0))
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	z0 := tbl.Seg(0).Zones[0]
	z1 := tbl.Seg(1).Zones[0]
	if z0.MinI64 != 0 || z0.MaxI64 != 99 || z1.MinI64 != 100 || z1.MaxI64 != 199 {
		t.Fatalf("zones: %+v %+v", z0, z1)
	}
	if z0.MayContainI64(150, 160) {
		t.Fatal("segment 0 zone map failed to prune")
	}
	if !z1.MayContainI64(150, 160) {
		t.Fatal("segment 1 zone map over-pruned")
	}
}

func TestRangePartitioning(t *testing.T) {
	r := newRig(t)
	tbl, err := Create("t", r.object(t, 16), testSchema(), Options{
		SegRows:         50,
		PartitionCol:    "id",
		PartitionBounds: []int64{99, 199}, // 3 partitions
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl.Append(ctxb(), makeBatch(t, 300, 0))
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	// Every segment holds rows of exactly one partition, and the partition
	// matches its id range.
	partRows := map[int]int{}
	for s := 0; s < tbl.Segments(); s++ {
		sm := tbl.Seg(s)
		partRows[sm.Partition] += sm.Rows
		z := sm.Zones[0]
		switch sm.Partition {
		case 0:
			if z.MaxI64 > 99 {
				t.Fatalf("partition 0 segment has id max %d", z.MaxI64)
			}
		case 1:
			if z.MinI64 < 100 || z.MaxI64 > 199 {
				t.Fatalf("partition 1 segment has ids [%d,%d]", z.MinI64, z.MaxI64)
			}
		case 2:
			if z.MinI64 < 200 {
				t.Fatalf("partition 2 segment has id min %d", z.MinI64)
			}
		}
	}
	if partRows[0] != 100 || partRows[1] != 100 || partRows[2] != 100 {
		t.Fatalf("partition rows = %v", partRows)
	}
}

func TestPartitionValidation(t *testing.T) {
	r := newRig(t)
	if _, err := Create("t", r.object(t, 16), testSchema(), Options{PartitionCol: "nope"}); err == nil {
		t.Fatal("unknown partition column accepted")
	}
	if _, err := Create("t", r.object(t, 16), testSchema(), Options{PartitionCol: "price"}); err == nil {
		t.Fatal("float partition column accepted")
	}
	if _, err := Create("t", r.object(t, 16), testSchema(), Options{PartitionCol: "id", PartitionBounds: []int64{5, 1}}); err == nil {
		t.Fatal("unsorted bounds accepted")
	}
}

// wantDensePages checks that a committed table's logical pages are exactly
// the meta page plus one page per (segment, column) — no sparse region whose
// page numbers would deepen the blockmap — and that the tree is no deeper
// than that many pages need.
func wantDensePages(t *testing.T, tbl *Table, id core.Identity) {
	t.Helper()
	want := uint64(1 + tbl.Segments()*len(tbl.Schema().Cols))
	if id.Pages != want {
		t.Fatalf("identity covers %d logical pages, want 1 + %d segments x %d columns = %d",
			id.Pages, tbl.Segments(), len(tbl.Schema().Cols), want)
	}
	levels, reach := uint32(0), uint64(id.Fanout)
	for reach < want {
		levels++
		reach *= uint64(id.Fanout)
	}
	if id.Levels != levels {
		t.Fatalf("blockmap root at level %d, want %d for %d pages at fanout %d", id.Levels, levels, want, id.Fanout)
	}
}

func TestReopenAppendCommitReadsEveryRow(t *testing.T) {
	r := newRig(t)
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{SegRows: 64})
	_ = tbl.Append(ctxb(), makeBatch(t, 64, 0))
	id, err := tbl.Commit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	wantDensePages(t, tbl, id)
	// Reopen writable and append more rows, enough for a second tree level.
	bm, _ := core.OpenBlockmap(r.ds, id)
	obj := r.pool.OpenObject(r.ds, bm, core.LockedSink(core.BitmapSink{RB: r.rb, RF: r.rf}), buffer.FlateCodec{})
	tbl2, err := Open(ctxb(), "t", obj, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Append(ctxb(), makeBatch(t, 300, 1000)); err != nil {
		t.Fatal(err)
	}
	id2, err := tbl2.Commit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	wantDensePages(t, tbl2, id2)
	if id2.Levels != 1 {
		t.Fatalf("%d pages at fanout 16 sit under a level-%d root, want 1", id2.Pages, id2.Levels)
	}

	// A cold reader of the second version sees every row of both appends.
	bm, _ = core.OpenBlockmap(r.ds, id2)
	cold := buffer.NewPool(buffer.Config{Capacity: 8 << 20}).OpenObject(r.ds, bm, nil, buffer.FlateCodec{})
	tbl3, err := Open(ctxb(), "t", cold, false)
	if err != nil {
		t.Fatal(err)
	}
	first, second := makeBatch(t, 64, 0), makeBatch(t, 300, 1000)
	wantIDs := append(first.Vecs[0].I64, second.Vecs[0].I64...)
	wantRegions := append(first.Vecs[2].Str, second.Vecs[2].Str...)
	var ids []int64
	var regions []string
	for seg := 0; seg < tbl3.Segments(); seg++ {
		b, err := tbl3.ReadSegment(ctxb(), seg, []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b.Vecs[0].I64...)
		regions = append(regions, b.Vecs[1].Str...)
	}
	if !slices.Equal(ids, wantIDs) || !slices.Equal(regions, wantRegions) {
		t.Fatalf("reopened table reads %d ids and %d regions, want the %d rows appended, in order", len(ids), len(regions), len(wantIDs))
	}
}

// TestReadOnlyOpensShareDecodedMeta: read-only tables opened from one cached
// meta image share its decoded meta; a writable open decodes its own, and
// what it appends reaches neither the shared meta nor the tables holding it.
func TestReadOnlyOpensShareDecodedMeta(t *testing.T) {
	r := newRig(t)
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{SegRows: 10})
	_ = tbl.Append(ctxb(), makeBatch(t, 30, 0))
	id, err := tbl.Commit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	open := func(id core.Identity, writable bool) *Table {
		t.Helper()
		bm, err := core.OpenBlockmap(r.ds, id)
		if err != nil {
			t.Fatal(err)
		}
		var sink core.FlushSink
		if writable {
			sink = core.LockedSink(core.BitmapSink{RB: r.rb, RF: r.rf})
		}
		got, err := Open(ctxb(), "t", r.pool.OpenObject(r.ds, bm, sink, buffer.FlateCodec{}), writable)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ro1, ro2 := open(id, false), open(id, false)
	if &ro1.meta.Segs[0] != &ro2.meta.Segs[0] {
		t.Fatal("two read-only opens of one meta image decoded it twice")
	}
	w := open(id, true)
	if &w.meta.Segs[0] == &ro1.meta.Segs[0] {
		t.Fatal("a writable open shares the read-only tables' meta")
	}
	if err := w.Append(ctxb(), makeBatch(t, 20, 100)); err != nil {
		t.Fatal(err)
	}
	id2, err := w.Commit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	if ro1.Segments() != 3 || ro2.Segments() != 3 || open(id, false).Segments() != 3 {
		t.Fatalf("the first version reads %d, %d segments after a later append, want 3", ro1.Segments(), ro2.Segments())
	}
	if got := open(id2, false); got.Segments() != 5 || got.Rows() != 50 {
		t.Fatalf("the second version reads %d segments, %d rows, want 5 and 50", got.Segments(), got.Rows())
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	r := newRig(t)
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{})
	bad := NewBatch(Schema{Cols: []ColumnDef{{Name: "x", Typ: column.Int64}}})
	if err := tbl.Append(ctxb(), bad); err == nil {
		t.Fatal("mismatched batch accepted")
	}
}

func TestReadSegmentOutOfRange(t *testing.T) {
	r := newRig(t)
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{})
	if _, err := tbl.ReadSegment(ctxb(), 0, []int{0}); err == nil {
		t.Fatal("read of nonexistent segment succeeded")
	}
}

// TestReadSegmentPagesChecksHeaders: a page whose header is not what the
// table says of it — another column's type, another segment's count — is
// refused by name before anyone decodes it; the pages around it still read.
func TestReadSegmentPagesChecksHeaders(t *testing.T) {
	r := newRig(t)
	obj := r.object(t, 16)
	tbl, err := Create("t", obj, testSchema(), Options{SegRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), makeBatch(t, 30, 0)); err != nil {
		t.Fatal(err)
	}
	nCols := uint64(len(testSchema().Cols))
	short := column.EncodeSegment(makeBatch(t, 9, 0).Vecs[1])    // 9 prices where segment 1 holds 10
	foreign := column.EncodeSegment(makeBatch(t, 10, 0).Vecs[0]) // ids where segment 2 holds regions
	if err := obj.Write(ctxb(), dataBase+1*nCols+1, short); err != nil {
		t.Fatal(err)
	}
	if err := obj.Write(ctxb(), dataBase+2*nCols+2, foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	for seg, want := range map[int]string{
		1: `table t: segment 1 column "price": page holds 9 float64 values, want 10 float64`,
		2: `table t: segment 2 column "region": page holds 10 int64 values, want 10 string`,
	} {
		if _, _, err := tbl.ReadSegmentPages(ctxb(), seg, []int{0, 1, 2, 3}); err == nil || err.Error() != want {
			t.Errorf("segment %d: %v, want %s", seg, err, want)
		}
		if _, err := tbl.ReadSegment(ctxb(), seg, []int{3, 2, 1}); err == nil || err.Error() != want {
			t.Errorf("segment %d decoded: %v, want %s", seg, err, want)
		}
	}
	pages, rows, err := tbl.ReadSegmentPages(ctxb(), 1, []int{3, 0})
	if err != nil || rows != 10 || len(pages) != 2 {
		t.Fatalf("columns beside the bad page: %d pages of %d rows, %v", len(pages), rows, err)
	}
	if b, err := tbl.ReadSegment(ctxb(), 0, []int{0, 1, 2, 3}); err != nil || b.Rows() != 10 {
		t.Fatalf("segment 0: %v", err)
	}
}

func TestCreateRefusesOversizedSegments(t *testing.T) {
	r := newRig(t)
	if _, err := Create("t", r.object(t, 16), testSchema(), Options{SegRows: column.MaxSegmentRows + 1}); err == nil {
		t.Fatal("a segment size no decoder accepts was accepted")
	}
	if _, err := Create("t", r.object(t, 16), testSchema(), Options{SegRows: column.MaxSegmentRows}); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyTableRejectsWrites(t *testing.T) {
	r := newRig(t)
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{SegRows: 10})
	_ = tbl.Append(ctxb(), makeBatch(t, 10, 0))
	id, _ := tbl.Commit(ctxb())
	bm, _ := core.OpenBlockmap(r.ds, id)
	obj := r.pool.OpenObject(r.ds, bm, nil, buffer.FlateCodec{})
	ro, err := Open(ctxb(), "t", obj, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Append(ctxb(), makeBatch(t, 1, 0)); err == nil {
		t.Fatal("append to read-only table succeeded")
	}
	if _, err := ro.Commit(ctxb()); err == nil {
		t.Fatal("commit of read-only table succeeded")
	}
}

func TestParseRows(t *testing.T) {
	schema := testSchema()
	b, err := ParseRows(schema, "1|2.5|ASIA|1995-03-15|\n2|3.5|EUROPE|1996-01-01|\n")
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 2 || b.Vecs[0].I64[1] != 2 || b.Vecs[1].F64[0] != 2.5 || b.Vecs[2].Str[0] != "ASIA" {
		t.Fatalf("parsed %+v", b.Vecs)
	}
	want := column.DateToDays(1995, 3, 15)
	if b.Vecs[3].I64[0] != want {
		t.Fatalf("date = %d, want %d", b.Vecs[3].I64[0], want)
	}
	if _, err := ParseRows(schema, "1|2.5|ASIA|\n"); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := ParseRows(schema, "x|2.5|ASIA|1995-03-15|\n"); err == nil {
		t.Fatal("bad int accepted")
	}
	if _, err := ParseRows(schema, "1|x|ASIA|1995-03-15|\n"); err == nil {
		t.Fatal("bad float accepted")
	}
	if _, err := ParseRows(schema, "1|2.5|ASIA|15-03-1995|\n"); err == nil {
		t.Fatal("bad date accepted")
	}

	// The line and field walk: what is tolerated, and what each error says.
	good, err := ParseRows(schema, "\n1|2.5|ASIA|1995-03-15\n\n\n2|3.5||1996-01-01|")
	if err != nil {
		t.Fatal(err)
	}
	if good.Rows() != 2 || good.Vecs[0].I64[1] != 2 || good.Vecs[2].Str[0] != "ASIA" || good.Vecs[2].Str[1] != "" ||
		good.Vecs[3].I64[1] != column.DateToDays(1996, 1, 1) {
		t.Fatalf("blank lines / no trailing bar / no final newline: parsed %+v", good.Vecs)
	}
	if empty, err := ParseRows(schema, ""); err != nil || empty.Rows() != 0 {
		t.Fatalf("empty input: %d rows, err %v", empty.Rows(), err)
	}
	for _, c := range []struct{ in, want string }{
		{"1|2.5|ASIA|\n", "table: line 1 has 3 fields, schema 4"},
		{"1|2.5|ASIA|1995-03-15||\n", "table: line 1 has 5 fields, schema 4"},
		{"|\n", "table: line 1 has 1 fields, schema 4"},
		// The field count is checked before any field of the line is parsed.
		{"x|2.5|ASIA|\n", "table: line 1 has 3 fields, schema 4"},
		{"1|2.5|ASIA|1995-03-15|\n\n\nx|2.5|ASIA|1995-03-15|\n", `table: line 4 column id: strconv.ParseInt: parsing "x": invalid syntax`},
		{"1|x|ASIA|1995-03-15", `table: line 1 column price: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"1|2.5|ASIA|1995-13-15|\n", `table: line 1 column shipdate: bad date "1995-13-15"`},
	} {
		if _, err := ParseRows(schema, c.in); err == nil || err.Error() != c.want {
			t.Errorf("ParseRows(%q) err = %v, want %s", c.in, err, c.want)
		}
	}
}

func TestLoadFromObjectStore(t *testing.T) {
	r := newRig(t)
	input := objstore.NewMem(objstore.Config{})
	var want int64
	for f := 0; f < 6; f++ {
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			id := f*40 + i
			fmt.Fprintf(&sb, "%d|%g|R%d|1995-01-01|\n", id, float64(id)/2, id%4)
			want++
		}
		if err := input.Put(ctxb(), fmt.Sprintf("tbl/part%d.tbl", f), []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{SegRows: 64})
	stats, err := Load(ctxb(), tbl, input, "tbl/", 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 6 || stats.Rows != want {
		t.Fatalf("stats = %+v, want %d rows in 6 files", stats, want)
	}
	if _, err := tbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != want {
		t.Fatalf("Rows = %d, want %d", tbl.Rows(), want)
	}
	// Sum of ids across all segments must match arithmetic series.
	var sum, n int64
	for s := 0; s < tbl.Segments(); s++ {
		b, err := tbl.ReadSegment(ctxb(), s, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range b.Vecs[0].I64 {
			sum += v
			n++
		}
	}
	if n != want || sum != want*(want-1)/2 {
		t.Fatalf("scan: n=%d sum=%d", n, sum)
	}
}

func TestLoadPropagatesParseErrors(t *testing.T) {
	r := newRig(t)
	input := objstore.NewMem(objstore.Config{})
	_ = input.Put(ctxb(), "bad/f.tbl", []byte("not|valid|row\n"))
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{})
	if _, err := Load(ctxb(), tbl, input, "bad/", 2); err == nil {
		t.Fatal("parse error not propagated")
	}
}

func TestBatchHelpers(t *testing.T) {
	b := makeBatch(t, 3, 0)
	if b.Col("region").Str[1] != "EUROPE" {
		t.Fatalf("Col lookup = %v", b.Col("region").Str)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCol on missing column did not panic")
		}
	}()
	_ = b.Col("missing")
}

func TestLoadRetriesEventuallyConsistentInputFiles(t *testing.T) {
	// Freshly uploaded input files may 404 on first read; the loader must
	// retry them, as the engine does for its own pages.
	r := newRig(t)
	input := objstore.NewMem(objstore.Config{Consistency: objstore.Consistency{NewKeyMissReads: 2}})
	_ = input.Put(ctxb(), "in/a.tbl", []byte("1|1.5|ASIA|1995-01-01|\n"))
	_ = input.Put(ctxb(), "in/b.tbl", []byte("2|2.5|EUROPE|1995-01-02|\n"))
	tbl, _ := Create("t", r.object(t, 16), testSchema(), Options{})
	stats, err := Load(ctxb(), tbl, input, "in/", 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 2 || stats.Files != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}
