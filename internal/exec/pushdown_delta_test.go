package exec

// Delta-dirty pushdown refusal pins, the ingest-lane sibling of the
// dirty-page refusal in buffer.Object.Select: a table with live delta rows
// must never push work store-side, because the store only holds the columnar
// main — a pushed result would silently miss the trickle-inserted rows. The
// scan must instead fall back to merged local reads, and the merged result
// must be byte-identical to a table that already absorbed the same rows into
// segments.

import (
	"testing"

	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/table"
)

// staticDelta is a fixed table.DeltaView for tests.
type staticDelta []*table.Batch

func (d staticDelta) DeltaRuns() []*table.Batch { return d }

// runsOf cuts b into runs at the given row positions.
func runsOf(b *table.Batch, cuts ...int) staticDelta {
	var runs staticDelta
	lo := 0
	for _, hi := range append(cuts, b.Rows()) {
		r := &table.Batch{Schema: b.Schema}
		for _, v := range b.Vecs {
			r.Vecs = append(r.Vecs, v.Slice(lo, hi))
		}
		runs, lo = append(runs, r), hi
	}
	return runs
}

func TestPushdownDeltaDirtyRefusal(t *testing.T) {
	const mainRows, deltaRows, segRows = 400, 37, 64
	const seed = 0x9D17

	// Reference: one table that already holds main+delta rows as segments.
	refStore := objstore.NewMem(objstore.Config{})
	refTbl, _ := pushdownTable(t, refStore, mainRows, segRows, seed)
	extra, _ := diffBatch(mt.New(seed+1), deltaRows)
	if err := refTbl.Append(ctxb(), extra); err != nil {
		t.Fatal(err)
	}
	if _, err := refTbl.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}

	// Under test: the same main rows as segments, the extra rows attached
	// as a delta view — one run, then three (one of a single row).
	store := objstore.NewMem(objstore.Config{})
	tbl, _ := pushdownTable(t, store, mainRows, segRows, seed)

	preds := []Expr{
		nil,
		Ge(Col("a"), ConstI(0)),
		And(Ge(Col("a"), ConstI(-5)), Lt(Col("b"), ConstI(30))),
	}
	m := store.Metrics()
	for _, view := range []staticDelta{runsOf(extra), runsOf(extra, 10, 11)} {
		tbl.AttachDelta(view)
		for i, pred := range preds {
			want := collectScan(t, refTbl, ScanOptions{Filter: pred})
			for _, mode := range []PushdownMode{PushdownForce, PushdownAuto} {
				got := collectScan(t, tbl, ScanOptions{Filter: pred, Pushdown: mode})
				if !sameBatch(want, got) {
					t.Fatalf("%d runs, pred %d mode %d: delta-merged scan diverged (%d vs %d rows)",
						len(view), i, mode, got.Rows(), want.Rows())
				}
			}
		}
	}
	if n := m.Selects(); n != 0 {
		t.Fatalf("delta-dirty scan reached the store's compute endpoint %d times; it must refuse pushdown", n)
	}

	// Aggregates take the same refusal: merged local fold, no selects.
	aggs := []Agg{{Func: Count, As: "n"}, {Func: Sum, Expr: Col("a"), As: "sa"}}
	want, err := ScanAgg(ctxb(), refTbl, diffCols, ScanOptions{Filter: Ge(Col("a"), ConstI(-2)), Prefetch: -1}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScanAgg(ctxb(), tbl, diffCols, ScanOptions{Filter: Ge(Col("a"), ConstI(-2)), Prefetch: -1, Pushdown: PushdownForce}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBatch(want, got) {
		t.Fatalf("delta-merged ScanAgg diverged")
	}
	if n := m.Selects(); n != 0 {
		t.Fatalf("delta-dirty ScanAgg reached the compute endpoint %d times", n)
	}

	// Detaching the view re-enables pushdown: the refusal is conditional on
	// live delta rows, not a blanket off-switch.
	tbl.AttachDelta(nil)
	_ = collectScan(t, tbl, ScanOptions{Filter: Ge(Col("a"), ConstI(0)), Pushdown: PushdownForce})
	if m.Selects() == 0 {
		t.Fatal("pushdown stayed refused after the delta view was detached")
	}
}
