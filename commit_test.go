package cloudiq

import (
	"errors"
	"testing"

	"cloudiq/internal/faultinject"
	"cloudiq/internal/wal"
)

// TestUnloggedCommitRollsBack dooms a commit record two ways the log reports
// as not appended: the fault fires before the write, or only a torn prefix of
// the frame reaches the device. Either way the commit fails, its transaction
// is rolled back — none stays active, so a restore is allowed — the log holds
// no record of it for a reopen to replay, and the next commit succeeds.
func TestUnloggedCommitRollsBack(t *testing.T) {
	for _, c := range []struct {
		name string
		site faultinject.Site
		arm  func(p *faultinject.Plan, s faultinject.Site)
	}{
		{"before write", faultinject.WALAppend.With("commit"), func(p *faultinject.Plan, s faultinject.Site) { p.Always(s) }},
		{"torn frame", faultinject.WALTornTail.With("commit"), func(p *faultinject.Plan, s faultinject.Site) { p.Lag(s, 1, 8) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := NewMemObjectStore(ObjectStoreConfig{})
			logDev := NewMemBlockDevice(BlockDeviceConfig{Growable: true})
			plan := faultinject.New(0xC3)
			open := func(faults *faultinject.Plan) *Database {
				t.Helper()
				db, err := Open(ctxb(), Config{LogDevice: logDev, Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				if err := db.AttachCloudDbspace("user", store, CloudOptions{}); err != nil {
					t.Fatal(err)
				}
				return db
			}
			commits := func() int {
				t.Helper()
				l, err := wal.Open(ctxb(), logDev)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				if err := l.Replay(ctxb(), func(r wal.Record) error {
					if r.Type == wal.RecCommit {
						n++
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return n
			}
			db := open(plan)
			var now int64
			if err := db.EnableSnapshots(ctxb(), store, 1000, func() int64 { return now }); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			tbl, err := tx.CreateTable(ctxb(), "user", "t", demoSchema(), TableOptions{SegRows: 32})
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Append(ctxb(), fillBatch(32, 0)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctxb()); err != nil {
				t.Fatal(err)
			}
			info, err := db.TakeSnapshot(ctxb())
			if err != nil {
				t.Fatal(err)
			}
			logged := commits()

			// The doomed commit appends pages and trickles rows.
			now = 10
			w := db.Begin()
			wt, err := w.OpenTableForAppend(ctxb(), "user", "t")
			if err != nil {
				t.Fatal(err)
			}
			if err := wt.Append(ctxb(), fillBatch(32, 500)); err != nil {
				t.Fatal(err)
			}
			if err := w.Insert(ctxb(), "t", fillBatch(4, 900)); err != nil {
				t.Fatal(err)
			}
			c.arm(plan, c.site)
			err = w.Commit(ctxb())
			plan.Clear(c.site)
			if !errors.Is(err, wal.ErrNotAppended) || !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("doomed commit err = %v, want an injected fault, not appended", err)
			}
			if n := db.mgr.ActiveCount(); n != 0 {
				t.Fatalf("%d transactions active after the failed commit, want 0", n)
			}
			if got := commits(); got != logged {
				t.Fatalf("log holds %d commits after the failed one, want %d", got, logged)
			}

			// A reopen of the crash image replays no commit of it.
			crashed := open(nil)
			if err := crashed.Recover(ctxb()); err != nil {
				t.Fatal(err)
			}
			if got := scanKV(t, crashed, "t"); !sameKeys(got, seqKeys(0, 32)) {
				t.Fatalf("reopen sees %d rows, want the 32 committed", len(got))
			}

			if err := db.RestoreSnapshot(ctxb(), info.ID); err != nil {
				t.Fatalf("restore after the failed commit: %v", err)
			}
			// The next commit's record lands where the doomed one failed,
			// and a reopen replays it.
			r := db.Begin()
			if err := r.Insert(ctxb(), "t", fillBatch(3, 700)); err != nil {
				t.Fatal(err)
			}
			if err := r.Commit(ctxb()); err != nil {
				t.Fatal(err)
			}
			again := open(nil)
			if err := again.Recover(ctxb()); err != nil {
				t.Fatal(err)
			}
			if got, want := scanKV(t, again, "t"), append(seqKeys(0, 32), seqKeys(700, 3)...); !sameKeys(got, want) {
				t.Fatalf("reopen after the next commit sees %v, want %v", got, want)
			}
		})
	}
}
