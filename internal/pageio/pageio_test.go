package pageio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/objstore"
)

func memStore() objstore.Store {
	return objstore.NewMem(objstore.Config{})
}

func put(t *testing.T, s objstore.Store, key string, data []byte) {
	t.Helper()
	if err := s.Put(context.Background(), key, data); err != nil {
		t.Fatalf("seed put %s: %v", key, err)
	}
}

// lateStore is a store whose fresh keys miss their first two reads — the
// eventual-consistency window retry-until-found exists for.
func lateStore() objstore.Store {
	return objstore.NewMem(objstore.Config{Consistency: objstore.Consistency{NewKeyMissReads: 2}})
}

// TestChainOrder pins the composition contract: the first middleware listed
// is the outermost stage.
func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next Handler) Handler {
			return &tagged{next: next, name: name, order: &order}
		}
	}
	h := Chain(NewStore(memStore()), tag("outer"), tag("inner"))
	_ = h.WritePage(context.Background(), WriteReq{Ref: Ref{Key: "k"}, Data: []byte("x")})
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("stage order = %v, want [outer inner]", order)
	}
}

type tagged struct {
	next  Handler
	name  string
	order *[]string
}

func (h *tagged) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	*h.order = append(*h.order, h.name)
	return h.next.ReadPage(ctx, ref)
}
func (h *tagged) WritePage(ctx context.Context, req WriteReq) error {
	*h.order = append(*h.order, h.name)
	return h.next.WritePage(ctx, req)
}
func (h *tagged) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	*h.order = append(*h.order, h.name)
	return h.next.ReadBatch(ctx, refs)
}
func (h *tagged) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	*h.order = append(*h.order, h.name)
	return h.next.WriteBatch(ctx, reqs)
}
func (h *tagged) Delete(ctx context.Context, ref Ref) error {
	*h.order = append(*h.order, h.name)
	return h.next.Delete(ctx, ref)
}

// TestMeterCountsRetriedAttempts checks the order property the pipelines are
// built on: a read that misses twice is retried through to success, a Meter
// INSIDE Retry records every attempt individually, and a Meter outside
// records one caller-visible call.
func TestMeterCountsRetriedAttempts(t *testing.T) {
	ctx := context.Background()
	store := lateStore()
	put(t, store, "page", []byte("payload"))

	reg := NewRegistry()
	h := Chain(NewStore(store),
		Meter(reg, "outer"),
		Retry(Policy{ReadAttempts: 5}),
		Meter(reg, "inner"),
	)
	if _, err := h.ReadPage(ctx, Ref{Key: "page"}); err != nil {
		t.Fatalf("read: %v", err)
	}
	snap := reg.Snapshot()
	inner, outer := snap["inner"].Read, snap["outer"].Read
	if inner.Calls != 3 || inner.Errors != 2 {
		t.Errorf("inner meter = %d calls / %d errors, want 3 / 2", inner.Calls, inner.Errors)
	}
	if outer.Calls != 1 || outer.Errors != 0 {
		t.Errorf("outer meter = %d calls / %d errors, want 1 / 0", outer.Calls, outer.Errors)
	}
	if inner.Bytes != uint64(len("payload")) {
		t.Errorf("inner bytes = %d, want %d (failed attempts move no data)", inner.Bytes, len("payload"))
	}
}

// TestRetryExhausted checks the ErrExhausted wrap and that the last
// underlying error stays visible.
func TestRetryExhausted(t *testing.T) {
	plan := faultinject.New(3).Always(faultinject.ObjPut)
	h := Chain(NewStore(objstore.NewMem(objstore.Config{Faults: plan})),
		Retry(Policy{WriteAttempts: 3}),
	)
	err := h.WritePage(context.Background(), WriteReq{Ref: Ref{Key: "k"}, Data: []byte("x")})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, should still wrap the underlying injected error", err)
	}
	if got := plan.Injected(); got != 3 {
		t.Errorf("injected = %d, want 3 write attempts", got)
	}
}

// TestRetryDefaultReadPolicy: only not-found reads retry by default.
func TestRetryDefaultReadPolicy(t *testing.T) {
	plan := faultinject.New(5)
	store := objstore.NewMem(objstore.Config{Faults: plan})
	put(t, store, "page", []byte("x"))
	h := Chain(NewStore(store), Retry(Policy{ReadAttempts: 4}))

	// Missing key: retried to exhaustion.
	_, err := h.ReadPage(context.Background(), Ref{Key: "absent"})
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("missing-key err = %v, want exhausted not-found", err)
	}

	// Injected (non-not-found) read error: surfaced immediately.
	before := plan.Calls(faultinject.ObjGet)
	plan.Always(faultinject.ObjGet)
	if _, err := h.ReadPage(context.Background(), Ref{Key: "page"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if got := plan.Calls(faultinject.ObjGet) - before; got != 1 {
		t.Errorf("obj.get calls = %d, want 1 (no retry on non-retryable error)", got)
	}
}

// TestPoolCancellation: once the context is cancelled, no further tasks
// start and the unrun tail reports ctx.Err().
func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	errs := NewPool(1).Do(ctx, 8, func(i int) error {
		ran.Add(1)
		if i == 2 {
			cancel()
		}
		return nil
	})
	if got := ran.Load(); got != 3 {
		t.Fatalf("tasks run = %d, want 3 (size-1 pool runs in index order)", got)
	}
	for i, err := range errs {
		if i <= 2 && err != nil {
			t.Errorf("errs[%d] = %v, want nil", i, err)
		}
		if i > 2 && !errors.Is(err, context.Canceled) {
			t.Errorf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

// TestPoolCollectsAllErrors: every distinct task failure survives into the
// positional slice; joining shows them all, not just the race winner.
func TestPoolCollectsAllErrors(t *testing.T) {
	errs := NewPool(4).Do(context.Background(), 6, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	joined := errors.Join(errs...)
	for _, want := range []string{"task 1 failed", "task 3 failed", "task 5 failed"} {
		if joined == nil || !strings.Contains(joined.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, joined)
		}
	}
}

// TestBatchErrorSemantics pins ItemErrors' three expansion modes and the
// errors.Is visibility through BatchError.
func TestBatchErrorSemantics(t *testing.T) {
	if errs := ItemErrors(nil, 3); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatal("nil error must expand to all-nil")
	}
	e1 := errors.New("one")
	be := &BatchError{Errs: []error{nil, e1, nil}}
	errs := ItemErrors(be, 3)
	if errs[0] != nil || !errors.Is(errs[1], e1) || errs[2] != nil {
		t.Fatalf("positional expansion wrong: %v", errs)
	}
	if !errors.Is(be, e1) {
		t.Fatal("errors.Is must see through BatchError")
	}
	whole := errors.New("whole batch down")
	for i, err := range ItemErrors(whole, 2) {
		if !errors.Is(err, whole) {
			t.Errorf("replicated err[%d] = %v", i, err)
		}
	}
}

// TestStoreBatch round-trips a batch through the store adapter below a
// Retry stage fanning out on a parallel pool, and checks positional
// alignment including failures.
func TestStoreBatch(t *testing.T) {
	ctx := context.Background()
	store := memStore()
	h := Chain(NewStore(store), Retry(Policy{Pool: NewPool(4)}))

	reqs := make([]WriteReq, 8)
	for i := range reqs {
		reqs[i] = WriteReq{Ref: Ref{Key: fmt.Sprintf("k%d", i)}, Data: []byte{byte(i)}}
	}
	if err := h.WriteBatch(ctx, reqs); err != nil {
		t.Fatalf("write batch: %v", err)
	}

	refs := []Ref{{Key: "k3"}, {Key: "missing"}, {Key: "k5"}}
	out, err := h.ReadBatch(ctx, refs)
	if err == nil {
		t.Fatal("read batch with a missing key must fail")
	}
	errs := ItemErrors(err, len(refs))
	if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], objstore.ErrNotFound) {
		t.Fatalf("item errors = %v", errs)
	}
	if out[0][0] != 3 || out[2][0] != 5 || out[1] != nil {
		t.Fatalf("batch results misaligned: %v", out)
	}
}

// TestCoalesceMergesAdjacentExtents: four adjacent pages become one device
// write and one device read; a gap splits the run.
func TestCoalesceMergesAdjacentExtents(t *testing.T) {
	ctx := context.Background()
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 16})
	h := Chain(NewDevice(dev, nil), Coalesce(0))

	const page = 64
	var reqs []WriteReq
	for i := 0; i < 4; i++ {
		data := make([]byte, page)
		for j := range data {
			data[j] = byte(i + 1)
		}
		reqs = append(reqs, WriteReq{Ref: Ref{Off: int64(i * page)}, Data: data})
	}
	if err := h.WriteBatch(ctx, reqs); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	if got := dev.Stats().Writes(); got != 1 {
		t.Errorf("device writes = %d, want 1 (group write)", got)
	}

	var refs []Ref
	for i := 0; i < 4; i++ {
		refs = append(refs, Ref{Off: int64(i * page), Len: page})
	}
	out, err := h.ReadBatch(ctx, refs)
	if err != nil {
		t.Fatalf("read batch: %v", err)
	}
	if got := dev.Stats().Reads(); got != 1 {
		t.Errorf("device reads = %d, want 1 (scatter-gather)", got)
	}
	for i, data := range out {
		if len(data) != page || data[0] != byte(i+1) || data[page-1] != byte(i+1) {
			t.Errorf("page %d content wrong: len=%d first=%d", i, len(data), data[0])
		}
	}

	// A hole splits the run: pages at 0 and 2*page are not adjacent.
	dev.Stats().Reset()
	if _, err := h.ReadBatch(ctx, []Ref{{Off: 0, Len: page}, {Off: 2 * page, Len: page}}); err != nil {
		t.Fatalf("gapped read batch: %v", err)
	}
	if got := dev.Stats().Reads(); got != 2 {
		t.Errorf("gapped device reads = %d, want 2", got)
	}

	// A batch holding a key ref passes through whole, unmerged, with every
	// result and error still in its own position.
	dev.Stats().Reset()
	mixed := []Ref{
		{Off: 0, Len: page},
		{Key: "k", Off: page, Len: page},
		{Off: 2 * page, Len: page},
		{Off: 1 << 20, Len: page}, // past the device's end
	}
	out, err = h.ReadBatch(ctx, mixed)
	if got := dev.Stats().Reads(); got != 4 {
		t.Errorf("mixed device reads = %d, want 4 (one per ref, none merged)", got)
	}
	errs := ItemErrors(err, len(mixed))
	for i := 0; i < 3; i++ {
		if errs[i] != nil || len(out[i]) != page || out[i][0] != byte(i+1) {
			t.Errorf("mixed item %d: err %v, first byte %v", i, errs[i], out[i])
		}
	}
	if !errors.Is(errs[3], blockdev.ErrOutOfRange) || out[3] != nil {
		t.Errorf("mixed item 3: err %v, data %v; want out of range and no data", errs[3], out[3])
	}
}

// TestCoalesceOutOfOrderBatch: refs arrive unsorted but still merge, and
// results stay positionally aligned with the request order.
func TestCoalesceOutOfOrderBatch(t *testing.T) {
	ctx := context.Background()
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 16})
	h := Chain(NewDevice(dev, nil), Coalesce(0))

	const page = 32
	reqs := []WriteReq{
		{Ref: Ref{Off: 2 * page}, Data: fill(page, 3)},
		{Ref: Ref{Off: 0}, Data: fill(page, 1)},
		{Ref: Ref{Off: 1 * page}, Data: fill(page, 2)},
	}
	if err := h.WriteBatch(ctx, reqs); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	if got := dev.Stats().Writes(); got != 1 {
		t.Errorf("device writes = %d, want 1", got)
	}
	out, err := h.ReadBatch(ctx, []Ref{
		{Off: 1 * page, Len: page},
		{Off: 0, Len: page},
	})
	if err != nil {
		t.Fatalf("read batch: %v", err)
	}
	if out[0][0] != 2 || out[1][0] != 1 {
		t.Fatalf("results misaligned: [%d %d], want [2 1]", out[0][0], out[1][0])
	}
}

func fill(n int, v byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = v
	}
	return b
}
