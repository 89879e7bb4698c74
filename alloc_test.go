//go:build !race

package cloudiq

import "testing"

// TestTxInsertCommitAllocs gates the trickle write path's allocations: one
// Begin, a 64-row Insert and its Commit (the commit record that carries the
// rows, the delta append). The ceiling is the count measured when the gate was
// added; a change that needs more says so by raising it. The race detector
// makes sync.Pool drop part of what is put back, so the gate is built
// without it.
func TestTxInsertCommitAllocs(t *testing.T) {
	const limit = 69
	db, _ := newDB(t)
	tx := db.Begin()
	if _, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 64}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctxb()); err != nil {
		t.Fatal(err)
	}
	rows := fillBatch(64, 0)
	var err error
	got := testing.AllocsPerRun(100, func() {
		w := db.Begin()
		if err = w.Insert(ctxb(), "t", rows); err == nil {
			err = w.Commit(ctxb())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > limit {
		t.Fatalf("%.0f allocations per Insert+Commit, limit %d", got, limit)
	}
}
