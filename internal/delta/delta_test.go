package delta

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cloudiq/internal/column"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/table"
)

func kvSchema() table.Schema {
	return table.Schema{Cols: []table.ColumnDef{
		{Name: "k", Typ: column.Int64},
		{Name: "v", Typ: column.String},
	}}
}

func kvBatch(base, n int) *table.Batch {
	b := table.NewBatch(kvSchema())
	for i := 0; i < n; i++ {
		b.Vecs[0].AppendInt(int64(base + i))
		b.Vecs[1].AppendStr(fmt.Sprintf("val-%d", base+i))
	}
	return b
}

func keys(v *View) []int64 {
	if v == nil {
		return nil
	}
	var ks []int64
	for _, r := range v.DeltaRuns() {
		ks = append(ks, r.Col("k").I64...)
	}
	return ks
}

func TestVisibilityBySequence(t *testing.T) {
	s := NewStore()
	s.Apply("t", kvBatch(0, 3), 5)
	s.Apply("t", kvBatch(3, 2), 7)

	if v := s.View("t", 4); v != nil {
		t.Fatalf("snapshot 4 sees %v, want nothing", keys(v))
	}
	if got := keys(s.View("t", 5)); len(got) != 3 {
		t.Fatalf("snapshot 5 sees %v, want 3 rows", got)
	}
	if got := keys(s.View("t", 7)); len(got) != 5 {
		t.Fatalf("snapshot 7 sees %v, want 5 rows", got)
	}
	if got := s.LiveRows("t", 6); got != 3 {
		t.Fatalf("LiveRows at 6 = %d, want 3", got)
	}
}

func TestCompactionSwapVisibility(t *testing.T) {
	s := NewStore()
	s.Apply("t", kvBatch(0, 4), 5)
	rows, through := s.Frozen("t")
	if rows.Rows() != 4 || through != 4 {
		t.Fatalf("Frozen = %d rows through %d, want 4/4", rows.Rows(), through)
	}
	// Compacting commit publishes at seq 9.
	s.MarkCompacted("t", through, 9)

	// A reader pinned before the swap still sees the rows in the delta.
	if got := keys(s.View("t", 8)); len(got) != 4 {
		t.Fatalf("pre-swap snapshot sees %v, want 4 rows", got)
	}
	// A reader at/after the swap reads them from segments instead.
	if v := s.View("t", 9); v != nil {
		t.Fatalf("post-swap snapshot sees %v in delta, want nothing", keys(v))
	}
	// Retirement honors the oldest snapshot.
	if n := s.Retire(8); n != 0 {
		t.Fatalf("Retire(8) released %d rows while a pre-swap reader could exist", n)
	}
	if n := s.Retire(9); n != 4 {
		t.Fatalf("Retire(9) released %d rows, want 4", n)
	}
}

func TestFreezeWatermarkLimitsDrain(t *testing.T) {
	s := NewStore()
	s.Apply("t", kvBatch(0, 3), 2)
	if n := s.Freeze("t"); n != 3 {
		t.Fatalf("Freeze froze %d rows, want 3", n)
	}
	// Rows landing after the freeze ride the next cycle.
	s.Apply("t", kvBatch(3, 2), 3)
	rows, through := s.Frozen("t")
	if rows.Rows() != 3 || through != 3 {
		t.Fatalf("Frozen = %d rows through %d, want 3/3", rows.Rows(), through)
	}
	s.MarkCompacted("t", through, 4)
	// The watermark resets; the next drain picks up the rest.
	rows, through = s.Frozen("t")
	if rows.Rows() != 2 || through != 5 {
		t.Fatalf("second Frozen = %d rows through %d, want 2/5", rows.Rows(), through)
	}
}

func TestDropHidesLiveRuns(t *testing.T) {
	s := NewStore()
	s.Apply("t", kvBatch(0, 3), 2)
	s.Drop("t", 5)
	if got := keys(s.View("t", 4)); len(got) != 3 {
		t.Fatalf("pre-drop snapshot sees %v, want 3 rows", got)
	}
	if v := s.View("t", 5); v != nil {
		t.Fatalf("post-drop snapshot sees %v, want nothing", keys(v))
	}
	if got := s.Tables(); len(got) != 0 {
		t.Fatalf("Tables = %v after drop, want none", got)
	}
}

func TestMarshalRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Apply("a", kvBatch(0, 3), 2)
	s.Apply("b", kvBatch(0, 5), 3)
	rows, through := s.Frozen("a")
	s.MarkCompacted("a", through, 4)
	if rows.Rows() != 3 {
		t.Fatalf("frozen %d rows, want 3", rows.Rows())
	}

	img, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: same state, same bytes.
	img2, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != string(img2) {
		t.Fatal("Marshal is not deterministic")
	}

	r := NewStore()
	if err := r.Restore(img); err != nil {
		t.Fatal(err)
	}
	// The image carries only live runs: a's absorbed rows are gone (an
	// image is only restored into worlds with no older snapshots), b's
	// rows survive, and row ids keep counting from where they were.
	if v := r.View("a", 99); v != nil {
		t.Fatalf("restored a sees %v, want nothing", keys(v))
	}
	if got := keys(r.View("b", 99)); len(got) != 5 {
		t.Fatalf("restored b sees %v, want 5 rows", got)
	}
	if base := r.Apply("a", kvBatch(3, 1), 9); base != 3 {
		t.Fatalf("post-restore row id = %d, want 3", base)
	}
}

func TestInsertRecordRoundTrip(t *testing.T) {
	in := InsertRecord{TxnID: 42, Table: "t", Rows: kvBatch(7, 3)}
	payload, err := EncodeInsert(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInsert(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.TxnID != 42 || out.Table != "t" || out.Rows.Rows() != 3 || out.Rows.Col("k").I64[0] != 7 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestCompactorFaultLeavesRowsLive(t *testing.T) {
	for _, site := range []faultinject.Site{
		faultinject.DeltaCompact,
		faultinject.DeltaCompact.With("swap"),
	} {
		s := NewStore()
		s.Apply("t", kvBatch(0, 4), 2)
		plan := faultinject.New(1)
		plan.Always(site)
		drained := 0
		c := &Compactor{Store: s, Faults: plan, Drain: func(ctx context.Context, tbl string, rows *table.Batch, through uint64) error {
			drained += rows.Rows()
			s.MarkCompacted(tbl, through, 3)
			return nil
		}}
		if _, err := c.CompactAll(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("site %s: err = %v, want injected", site, err)
		}
		if drained != 0 {
			t.Fatalf("site %s: drained %d rows through a faulted cycle", site, drained)
		}
		if got := s.LiveRows("t", 99); got != 4 {
			t.Fatalf("site %s: %d rows live after abandoned cycle, want 4", site, got)
		}
		// The next, unfaulted cycle completes the drain.
		plan.Clear(site)
		n, err := c.CompactAll(context.Background())
		if err != nil || n != 4 {
			t.Fatalf("site %s: retry drained %d rows, err %v", site, n, err)
		}
		if got := s.LiveRows("t", 99); got != 0 {
			t.Fatalf("site %s: %d rows live after drain", site, got)
		}
	}
}

func TestCompactorFailedDrainKeepsRows(t *testing.T) {
	s := NewStore()
	s.Apply("t", kvBatch(0, 4), 2)
	boom := errors.New("doomed commit")
	c := &Compactor{Store: s, Drain: func(ctx context.Context, tbl string, rows *table.Batch, through uint64) error {
		return boom
	}}
	if _, err := c.CompactTable(context.Background(), "t"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := s.LiveRows("t", 99); got != 4 {
		t.Fatalf("%d rows live after failed drain, want 4", got)
	}
}
