package exec

// Tests of the scan's read-ahead: with a window, segments are read and
// decoded on goroutines of their own, and the consumer must still see exactly
// what the synchronous scan (Prefetch -1) yields — batch for batch, error for
// error — with no goroutine outliving an abandoned scan by more than its one
// segment, and no page requested twice.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/iomodel"
	"cloudiq/internal/mt"
	"cloudiq/internal/objstore"
	"cloudiq/internal/table"
)

// readAheadWindows are the windows every read-ahead test compares: off, one
// segment, the default and more segments than the table has.
var readAheadWindows = []int{-1, 1, 0, 64}

// selectless hides the memory store's compute endpoint: a pushdown against it
// fails and the segment falls back to the plain read.
type selectless struct{ objstore.Store }

// nextAll returns every batch a scan yields, in order, or the batches before
// the error and the error. push, if not nil, overrides the pushdown decision
// with a push of the scan's rows. A synchronous scan must start no task.
func nextAll(t *testing.T, tbl *table.Table, cols []string, opts ScanOptions, push func(i int) bool) ([]*table.Batch, error) {
	t.Helper()
	src, err := Scan(tbl, cols, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := src.(*scanSource)
	if push != nil {
		s.plan = objstore.SelectPlan{Filter: opts.Filter, Project: cols}
		s.push = make([]bool, len(s.segs))
		for i := range s.push {
			s.push[i] = push(i)
		}
	}
	var out []*table.Batch
	for {
		b, err := src.Next(ctxb())
		if opts.Prefetch < 0 && s.ahead != nil {
			t.Fatal("a scan with Prefetch -1 read ahead")
		}
		if err != nil || b == nil {
			return out, err
		}
		out = append(out, b)
	}
}

// TestReadAheadDifferential: every window yields the synchronous scan's
// batches in the same order, over segments the zone maps prune, the filter
// empties, every row passes and some rows pass, with delta rows merged after
// them, and with pushed-down segments — answered by the store or falling back
// to the plain read — between read-ahead ones.
func TestReadAheadDifferential(t *testing.T) {
	const n, segRows = 500, 64 // r = row/40: segment k holds r in [64k/40, (64k+63)/40]
	// Segments 0 and 4 pass whole, 1 and 3 in part, 2 and 5 are pruned, and
	// 6 and 7 are read and emptied: the zone maps cannot see through the Add.
	filter := Or(Or(Le(Col("r"), ConstI(1)), And(Ge(Col("r"), ConstI(6)), Le(Col("r"), ConstI(7)))),
		And(Ge(Col("r"), ConstI(10)), Lt(Add(Col("r"), ConstI(0)), ConstI(10))))
	mem := objstore.NewMem(objstore.Config{})
	tbl, _ := scanTable(t, mem, n, segRows, 0xAEAD, nil)
	fallback, _ := scanTable(t, selectless{objstore.NewMem(objstore.Config{})}, n, segRows, 0xAEAD, nil)
	extra, _ := scanBatch(mt.New(0xAEAE), 29)
	withDelta, _ := scanTable(t, objstore.NewMem(objstore.Config{}), n, segRows, 0xAEAD, nil)
	withDelta.AttachDelta(runsOf(extra, 7, 20))

	src, err := Scan(tbl, scanCols, ScanOptions{Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if segs := src.(*scanSource).segs; len(segs) != 6 || segs[2] != 3 || segs[3] != 4 {
		t.Fatalf("zone maps kept segments %v, want 0 1 3 4 6 7", segs)
	}
	everyThird := func(i int) bool { return i%3 == 1 }
	for _, tc := range []struct {
		name string
		tbl  *table.Table
		cols []string
		opts ScanOptions
		push func(i int) bool
	}{
		{"unfiltered", tbl, scanCols, ScanOptions{}, nil},
		{"filtered", tbl, scanCols, ScanOptions{Filter: filter}, nil},
		{"filtered, projection without the filter's columns first", tbl, []string{"u", "w", "r", "f"}, ScanOptions{Filter: filter}, nil},
		{"delta rows", withDelta, []string{"r", "u", "f"}, ScanOptions{Filter: filter}, nil},
		{"every third segment pushed", tbl, scanCols, ScanOptions{Filter: filter}, everyThird},
		{"every third segment pushed, store without Select", fallback, scanCols, ScanOptions{Filter: filter}, everyThird},
		{"forced pushdown, store without Select", fallback, scanCols, ScanOptions{Filter: filter, Pushdown: PushdownForce}, nil},
	} {
		var want []*table.Batch
		for _, w := range readAheadWindows {
			opts := tc.opts
			opts.Prefetch = w
			got, err := nextAll(t, tc.tbl, tc.cols, opts, tc.push)
			if err != nil {
				t.Fatalf("%s, window %d: %v", tc.name, w, err)
			}
			if w < 0 {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s, window %d: %d batches, synchronous scan %d", tc.name, w, len(got), len(want))
			}
			for i := range got {
				if !sameBatch(got[i], want[i]) {
					t.Fatalf("%s, window %d: batch %d has %d rows, synchronous scan %d — or their values differ",
						tc.name, w, i, got[i].Rows(), want[i].Rows())
				}
			}
		}
	}
}

// TestReadAheadError: a segment that fails to read fails the scan at the Next
// that reaches it, with the same error, whether it was read ahead or inline.
func TestReadAheadError(t *testing.T) {
	const n, segRows = 300, 64 // five segments; segment 2 is ragged
	ragged, _ := scanTable(t, objstore.NewMem(objstore.Config{}), n, segRows, 0xAEB0, func(obj *buffer.Object) {
		// A well-formed header of 63 strings where the segment holds 64.
		bad := []byte{byte(column.String), byte(column.EncPlainString), segRows - 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}
		if err := obj.Write(ctxb(), pageOf(2, 9), append(bad, make([]byte, 8*segRows)...)); err != nil {
			t.Fatal(err)
		}
	})
	var want error
	for _, w := range readAheadWindows {
		for _, f := range []Expr{nil, Ge(Col("r"), ConstI(0))} {
			got, err := nextAll(t, ragged, []string{"r", "a", "u"}, ScanOptions{Filter: f, Prefetch: w}, nil)
			if err == nil || len(got) != 2 {
				t.Fatalf("window %d, filter %v: %d batches, then %v; want 2 and the ragged page's error", w, f, len(got), err)
			}
			if want == nil {
				want = err
			}
			if err.Error() != want.Error() {
				t.Fatalf("window %d, filter %v: %v, want %v", w, f, err, want)
			}
		}
	}
}

// waitGoroutines polls until no more than base goroutines run, or fails.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still run, %d before the scan", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadAbandon: a consumer that stops after the first batch — or
// whose context is cancelled — leaves no goroutine behind once the tasks in
// flight have finished their segments.
func TestReadAheadAbandon(t *testing.T) {
	tbl, _ := scanTable(t, objstore.NewMem(objstore.Config{}), 2000, 32, 0xAEB1, nil)
	for _, cancel := range []bool{false, true} {
		base := runtime.NumGoroutine()
		ctx, stop := context.WithCancel(ctxb())
		src, err := Scan(tbl, scanCols, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if b, err := src.Next(ctx); err != nil || b.Rows() != 32 {
			t.Fatalf("first batch: %v", err)
		}
		started := 0
		for _, r := range src.(*scanSource).ahead {
			if r != nil {
				started++
			}
		}
		if started != 7 {
			t.Fatalf("%d segments read ahead after the first batch, want the window's other 7", started)
		}
		if cancel {
			stop()
			if _, err := src.Next(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Next after cancel: %v", err)
			}
		}
		waitGoroutines(t, base, map[bool]string{false: "abandoned scan", true: "cancelled scan"}[cancel])
		stop()
	}
}

// TestReadAheadReadsEachPageOnce: a cold scan asks the pool for each of its
// pages once with read-ahead as without, and a scan after it finds every page
// cached — read-ahead warms the cache the next reader hits, and nothing reads
// a page twice to do so.
func TestReadAheadReadsEachPageOnce(t *testing.T) {
	store := objstore.NewMem(objstore.Config{})
	ds := cloudDbspace(store)
	b, _ := scanBatch(mt.New(0xAEB2), 1000)
	tbl, err := table.Create("t", newTableObjectOn(t, ds, 1<<20), b.Schema, table.Options{SegRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(ctxb(), b); err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Commit(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "f", "s", "u"}
	for _, win := range readAheadWindows {
		bm, err := core.OpenBlockmap(ds, id)
		if err != nil {
			t.Fatal(err)
		}
		pool := buffer.NewPool(buffer.Config{Capacity: 64 << 20})
		cold, err := table.Open(ctxb(), "t", pool.OpenObject(ds, bm, nil), false)
		if err != nil {
			t.Fatal(err)
		}
		scan := func() (requests, misses, gets int64) {
			before, getsBefore := pool.Stats(), store.Metrics().Gets()
			src, err := Scan(cold, cols, ScanOptions{Prefetch: win})
			if err != nil {
				t.Fatal(err)
			}
			if out, err := Collect(ctxb(), src); err != nil || out.Rows() != 1000 {
				t.Fatalf("window %d: scan: %v", win, err)
			}
			after := pool.Stats()
			return after.Hits + after.Misses - before.Hits - before.Misses, after.Misses - before.Misses, store.Metrics().Gets() - getsBefore
		}
		want := int64(cold.Segments() * len(cols))
		if requests, misses, _ := scan(); requests != want || misses != want {
			t.Fatalf("window %d: cold scan made %d page requests, %d misses; want %d of each", win, requests, misses, want)
		}
		if requests, misses, gets := scan(); requests != want || misses != 0 || gets != 0 {
			t.Fatalf("window %d: warm scan made %d page requests, %d misses, %d GETs; want %d, 0, 0", win, requests, misses, gets, want)
		}
	}
}

// TestPushedSegmentsReadAhead: pushed-down segments ride the read-ahead
// window as plain reads do. On a store whose selects each take 10 ms of
// modelled time, a forced Scan and a forced ScanAgg over 20 segments take at
// most ⌈segments ÷ window⌉ + 1 select latencies, not one latency a segment.
func TestPushedSegmentsReadAhead(t *testing.T) {
	const latency = 10 * time.Millisecond
	store := objstore.NewMem(objstore.Config{ReadLatency: iomodel.Latency{Base: latency}})
	tbl, _ := pushdownTable(t, store, 640, 32, 0xAEB3)
	segs := tbl.Segments()
	if segs < 16 {
		t.Fatalf("%d segments, want at least 16", segs)
	}
	aggs := []Agg{{Func: Count, As: "n"}, {Func: Sum, Expr: Col("f"), As: "sum"}}
	for _, window := range readAheadWindows[1:] {
		opts := ScanOptions{Pushdown: PushdownForce, Prefetch: window}
		width := window
		if width == 0 {
			width = 8
		}
		limit := time.Duration((segs+width-1)/width+1) * latency
		for name, run := range map[string]func(ctx context.Context) error{
			"Scan": func(ctx context.Context) error {
				src, err := Scan(tbl, diffCols, opts)
				if err == nil {
					_, err = Collect(ctx, src)
				}
				return err
			},
			"ScanAgg": func(ctx context.Context) error {
				_, err := ScanAgg(ctx, tbl, diffCols, opts, aggs)
				return err
			},
		} {
			selects := store.Metrics().Selects()
			ctx := iomodel.Start(ctxb())
			if err := run(ctx); err != nil {
				t.Fatalf("%s, window %d: %v", name, window, err)
			}
			if n := store.Metrics().Selects() - selects; n != int64(segs) {
				t.Fatalf("%s, window %d: %d selects over %d segments", name, window, n, segs)
			}
			if took := iomodel.Now(ctx); took > limit {
				t.Errorf("%s, window %d: %v of modelled time over %d segments, limit %v", name, window, took, segs, limit)
			}
		}
	}
}
