package bench

import "testing"

// TestIngestLaneProperties runs a scaled-down ingest experiment (the full
// run is iqbench's job) and checks the acceptance properties: every trickled
// row survives the drain (RunIngest errors on a count mismatch) and each
// point's backlog drains completely.
func TestIngestLaneProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated-latency experiment")
	}
	rep, err := RunIngest(ctxb(), fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 {
		t.Fatal("no trickle points reported")
	}
	for _, p := range rep.Points {
		if p.Rate <= 0 {
			t.Errorf("batch %d: non-positive ingest rate", p.Batch)
		}
		if p.DrainedRows != p.Rows {
			t.Errorf("batch %d: drained %d rows, want %d", p.Batch, p.DrainedRows, p.Rows)
		}
		if p.DeltaRows != p.Rows {
			t.Errorf("batch %d: %d delta rows at scan time, want %d", p.Batch, p.DeltaRows, p.Rows)
		}
	}
}
