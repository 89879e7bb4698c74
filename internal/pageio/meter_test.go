package pageio

import (
	"context"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/trace"
)

func attrMap(s trace.SpanData) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestTraceMiddlewareSpans: a Meter opens one span per operation carrying
// the layer name — with no registry too, so a layer without counters is
// still traced — and the Retry stage annotates that same span with its
// attempt count when it had to retry.
func TestTraceMiddlewareSpans(t *testing.T) {
	store := lateStore()
	put(t, store, "page", []byte("payload"))

	h := Chain(NewStore(store),
		Meter(nil, "dbspace:t"),
		Retry(Policy{ReadAttempts: 5}),
	)

	tr := trace.New(trace.Config{})
	ctx, root := trace.Root(context.Background(), tr, "op")
	if _, err := h.ReadPage(ctx, Ref{Key: "page"}); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := h.WritePage(ctx, WriteReq{Ref: Ref{Key: "k2"}, Data: []byte("abc"), Async: true}); err != nil {
		t.Fatalf("write: %v", err)
	}
	root.End()

	spans, _ := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (read, write, root)", len(spans))
	}
	read, write := spans[0], spans[1]
	if read.Name != "pageio.read" || write.Name != "pageio.write" {
		t.Fatalf("span names = %q, %q", read.Name, write.Name)
	}
	ra, wa := attrMap(read), attrMap(write)
	if ra["layer"] != "dbspace:t" || ra["ref"] != "page" {
		t.Errorf("read attrs = %v", ra)
	}
	if ra["retry.attempts"] != "3" {
		t.Errorf("read retry.attempts = %q, want 3 (2 failures + success)", ra["retry.attempts"])
	}
	if ra["bytes"] != "7" {
		t.Errorf("read bytes = %q, want 7", ra["bytes"])
	}
	if wa["bytes"] != "3" || wa["async"] != "true" {
		t.Errorf("write attrs = %v", wa)
	}
	if read.Parent != spans[2].ID || write.Parent != spans[2].ID {
		t.Errorf("pageio spans must be children of the root")
	}
}

// TestTraceMiddlewareCoalesceAnnotation: Coalesce records its merge decision
// on the batch span opened by the Meter above it.
func TestTraceMiddlewareCoalesceAnnotation(t *testing.T) {
	ctx0 := context.Background()
	const page = 64
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 16})
	h := Chain(NewDevice(dev, nil), Meter(nil, "dev:t"), Coalesce(0))

	var reqs []WriteReq
	for i := 0; i < 4; i++ {
		reqs = append(reqs, WriteReq{Ref: Ref{Off: int64(i * page)}, Data: fill(page, byte(i+1))})
	}
	tr := trace.New(trace.Config{})
	ctx, root := trace.Root(ctx0, tr, "op")
	if err := h.WriteBatch(ctx, reqs); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	var refs []Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, Ref{Off: int64(i * page), Len: page})
	}
	if _, err := h.ReadBatch(ctx, refs); err != nil {
		t.Fatalf("read batch: %v", err)
	}
	root.End()

	spans, _ := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wb, rb := attrMap(spans[0]), attrMap(spans[1])
	if wb["coalesce.refs"] != "4" || wb["coalesce.spans"] != "1" {
		t.Errorf("write merge attrs = %v", wb)
	}
	if rb["coalesce.refs"] != "4" || rb["coalesce.spans"] != "1" {
		t.Errorf("read merge attrs = %v", rb)
	}
	if rb["items"] != "4" || rb["bytes"] != "256" {
		t.Errorf("readbatch attrs = %v", rb)
	}
}

// TestTraceMiddlewareOff: with no span in the context the pipeline opens
// none, behaves identically, and still counts.
func TestTraceMiddlewareOff(t *testing.T) {
	store := memStore()
	put(t, store, "page", []byte("payload"))
	reg := NewRegistry()
	h := Chain(NewStore(store), Meter(reg, "dbspace:t"))
	data, err := h.ReadPage(context.Background(), Ref{Key: "page"})
	if err != nil || string(data) != "payload" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if r := reg.Snapshot()["dbspace:t"].Read; r.Calls != 1 || r.Bytes != 7 {
		t.Errorf("read stats = %d calls / %d bytes, want 1 / 7", r.Calls, r.Bytes)
	}
}

// TestMeterSpanAndCountersAgree: a layer with both a registry and a tracer
// is observed at one point, so one operation yields its span and its
// counters, and they describe the same call.
func TestMeterSpanAndCountersAgree(t *testing.T) {
	store := lateStore()
	put(t, store, "a", []byte("12345"))
	put(t, store, "b", []byte("678"))
	reg := NewRegistry()
	h := Chain(NewStore(store),
		Meter(reg, "dbspace:t"),
		Retry(Policy{ReadAttempts: 5}),
		Meter(reg, "store:t"),
	)

	tr := trace.New(trace.Config{})
	ctx, root := trace.Root(context.Background(), tr, "op")
	if _, err := h.ReadBatch(ctx, []Ref{{Key: "a"}, {Key: "b"}}); err != nil {
		t.Fatalf("read batch: %v", err)
	}
	root.End()

	spans, _ := tr.Snapshot()
	names := map[string]int{}
	var outer trace.SpanData
	for _, s := range spans {
		a := attrMap(s)
		names[s.Name+" "+a["layer"]]++
		if a["layer"] == "dbspace:t" {
			outer = s
		}
	}
	// Each key misses twice before it is found: six attempts below Retry.
	if names["pageio.readbatch dbspace:t"] != 1 || names["pageio.read store:t"] != 6 {
		t.Fatalf("spans by name and layer = %v", names)
	}
	snap := reg.Snapshot()
	o, in := snap["dbspace:t"].Read, snap["store:t"].Read
	oa := attrMap(outer)
	if o.Calls != 1 || o.Items != 2 || o.Bytes != 8 || oa["items"] != "2" || oa["bytes"] != "8" {
		t.Errorf("outer layer: stats %d calls / %d items / %d bytes, span attrs %v", o.Calls, o.Items, o.Bytes, oa)
	}
	if in.Calls != 6 || in.Errors != 4 || in.Bytes != 8 {
		t.Errorf("inner layer: stats %d calls / %d errors / %d bytes, want 6 / 4 / 8", in.Calls, in.Errors, in.Bytes)
	}
}

// memHandler serves every read from one page in memory and discards every
// write: a terminal that costs nothing, so a chain's own allocations show.
type memHandler struct{ page []byte }

func (h memHandler) ReadPage(context.Context, Ref) ([]byte, error) { return h.page, nil }
func (h memHandler) WritePage(context.Context, WriteReq) error     { return nil }
func (h memHandler) Delete(context.Context, Ref) error             { return nil }
func (h memHandler) WriteBatch(context.Context, []WriteReq) error  { return nil }
func (h memHandler) ReadBatch(_ context.Context, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	for i := range out {
		out[i] = h.page
	}
	return out, nil
}

// TestMeterReadBatchAllocs gates the cloud pipeline's shape,
// Meter→Retry→Meter with tracing off, on an 8-ref ReadBatch. The limit is
// what the same batch cost through Trace→Meter→Retry→Trace→Meter when each
// layer had a tracing stage in front of its meter: 6 allocations.
func TestMeterReadBatchAllocs(t *testing.T) {
	reg := NewRegistry()
	h := Chain(memHandler{page: make([]byte, 4096)},
		Meter(reg, "outer"),
		Retry(Policy{ReadAttempts: 10, WriteAttempts: 3}),
		Meter(reg, "inner"),
	)
	refs := make([]Ref, 8)
	for i := range refs {
		refs[i] = Ref{Key: "k"}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.ReadBatch(ctx, refs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("8-ref ReadBatch allocates %.0f times per call, limit 6", allocs)
	}
	t.Logf("%.0f allocations per 8-ref ReadBatch", allocs)
}
