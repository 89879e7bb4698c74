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

// TestTraceMiddlewareSpans: the Trace stage opens one span per operation
// carrying the layer name, and the Retry stage annotates that same span with
// its attempt count when it had to retry.
func TestTraceMiddlewareSpans(t *testing.T) {
	store := lateStore()
	put(t, store, "page", []byte("payload"))

	h := Chain(NewStore(store, nil),
		Trace("dbspace:t"),
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
// on the batch span opened by the Trace stage above it.
func TestTraceMiddlewareCoalesceAnnotation(t *testing.T) {
	ctx0 := context.Background()
	const page = 64
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 16})
	h := Chain(NewDevice(dev, nil), Trace("dev:t"), Coalesce(0))

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

// TestTraceMiddlewareOff: with no span in the context, the pipeline records
// nothing and behaves identically.
func TestTraceMiddlewareOff(t *testing.T) {
	store := memStore()
	put(t, store, "page", []byte("payload"))
	h := Chain(NewStore(store, nil), Trace("dbspace:t"))
	data, err := h.ReadPage(context.Background(), Ref{Key: "page"})
	if err != nil || string(data) != "payload" {
		t.Fatalf("read = %q, %v", data, err)
	}
}
