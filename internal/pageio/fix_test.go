package pageio

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cloudiq/internal/blockdev"
	"cloudiq/internal/faultinject"
	"cloudiq/internal/objstore"
)

// errHandler fails every operation with a fixed error, counting calls.
type errHandler struct {
	err   error
	calls int
}

func (h *errHandler) ReadPage(context.Context, Ref) ([]byte, error) {
	h.calls++
	return nil, h.err
}
func (h *errHandler) WritePage(context.Context, WriteReq) error {
	h.calls++
	return h.err
}
func (h *errHandler) ReadBatch(_ context.Context, refs []Ref) ([][]byte, error) {
	h.calls++
	return make([][]byte, len(refs)), h.err
}
func (h *errHandler) WriteBatch(context.Context, []WriteReq) error {
	h.calls++
	return h.err
}
func (h *errHandler) Delete(context.Context, Ref) error {
	h.calls++
	return h.err
}

// TestRetryWriteStopsOnContextError is the regression test for the canceled
// flush bug: a write that fails with the operation's own cancellation must
// surface it at once, not burn the write budget sleeping and come back as
// ErrExhausted. The returned error is what matters — the middleware's own
// ctx may not have ticked over yet when the inner handler observed it.
func TestRetryWriteStopsOnContextError(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"canceled", context.Canceled},
		{"deadline", context.DeadlineExceeded},
		{"wrapped", fmt.Errorf("upload chunk 3: %w", context.Canceled)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := &errHandler{err: tc.err}
			h := Chain(inner, Retry(Policy{WriteAttempts: 5}))
			err := h.WritePage(context.Background(), WriteReq{Ref: Ref{Key: "k"}, Data: []byte("x")})
			if !errors.Is(err, tc.err) || errors.Is(err, ErrExhausted) {
				t.Fatalf("err = %v, want bare %v", err, tc.err)
			}
			if inner.calls != 1 {
				t.Fatalf("attempts = %d, want 1 (no retry on ctx error)", inner.calls)
			}
		})
	}
}

// TestRetryReadStopsOnContextError: same discipline on the read path, even
// for a miss the read policy would otherwise poll again.
func TestRetryReadStopsOnContextError(t *testing.T) {
	inner := &errHandler{err: fmt.Errorf("get: %w: %w", objstore.ErrNotFound, context.DeadlineExceeded)}
	h := Chain(inner, Retry(Policy{ReadAttempts: 5}))
	_, err := h.ReadPage(context.Background(), Ref{Key: "k"})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want deadline without exhaustion", err)
	}
	if inner.calls != 1 {
		t.Fatalf("attempts = %d, want 1", inner.calls)
	}
}

// TestRetryDeleteUsesWritePolicy is the regression test for the
// forward-only Delete: a transiently failing delete must recover within the
// write budget (deletes are idempotent under never-write-twice), and a
// persistently failing one must wrap ErrExhausted like a write would.
func TestRetryDeleteUsesWritePolicy(t *testing.T) {
	plan := faultinject.New(11).FailNext(faultinject.ObjDelete, 2)
	h := Chain(NewStore(objstore.NewMem(objstore.Config{Faults: plan}), nil),
		Retry(Policy{WriteAttempts: 3}),
	)
	if err := h.Delete(context.Background(), Ref{Key: "k"}); err != nil {
		t.Fatalf("delete should retry through 2 injected failures: %v", err)
	}
	if got := plan.Calls(faultinject.ObjDelete); got != 3 {
		t.Errorf("obj.delete calls = %d, want 3 (2 failures + success)", got)
	}

	plan2 := faultinject.New(11).Always(faultinject.ObjDelete)
	h2 := Chain(NewStore(objstore.NewMem(objstore.Config{Faults: plan2}), nil),
		Retry(Policy{WriteAttempts: 3}),
	)
	err := h2.Delete(context.Background(), Ref{Key: "k"})
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want exhausted injected", err)
	}
	if got := plan2.Injected(); got != 3 {
		t.Errorf("injected = %d, want 3 delete attempts", got)
	}

	// And the ctx-error discipline applies to deletes too.
	inner := &errHandler{err: context.Canceled}
	h3 := Chain(inner, Retry(Policy{WriteAttempts: 5}))
	if err := h3.Delete(context.Background(), Ref{Key: "k"}); !errors.Is(err, context.Canceled) || errors.Is(err, ErrExhausted) {
		t.Fatalf("delete ctx err = %v, want bare context.Canceled", err)
	}
	if inner.calls != 1 {
		t.Fatalf("delete attempts = %d, want 1", inner.calls)
	}
}

// TestCoalesceFailedSpanFallsBack: when the merged read fails, Coalesce must
// degrade to per-page reads instead of smearing one error over every ref in
// the span. A transient failure therefore recovers completely; a persistent
// single-page failure pins the error to that page alone.
func TestCoalesceFailedSpanFallsBack(t *testing.T) {
	ctx := context.Background()
	const page = 64
	plan := faultinject.New(3)
	dev := blockdev.NewMem(blockdev.Config{Capacity: 1 << 16, Faults: plan})
	seed := Chain(NewDevice(dev, nil))
	for i := 0; i < 4; i++ {
		if err := seed.WritePage(ctx, WriteReq{Ref: Ref{Off: int64(i * page)}, Data: fill(page, byte(i+1))}); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
	refs := make([]Ref, 4)
	for i := range refs {
		refs[i] = Ref{Off: int64(i * page), Len: page}
	}

	// Transient: only the merged span read fails; the per-page fallback
	// succeeds and the caller sees clean data.
	plan.FailNext(faultinject.DevRead, 1)
	h := Chain(NewDevice(dev, nil), Coalesce(0))
	out, err := h.ReadBatch(ctx, refs)
	if err != nil {
		t.Fatalf("transient span failure should fall back cleanly: %v", err)
	}
	for i, data := range out {
		if len(data) != page || data[0] != byte(i+1) {
			t.Errorf("page %d content wrong after fallback", i)
		}
	}

	// Persistent: the page at offset 0 fails both as the merged span
	// (detail "0") and as its own fallback read — but only that ref errors.
	plan.Always(faultinject.DevRead.With("0"))
	out2, err2 := h.ReadBatch(ctx, refs)
	if err2 == nil {
		t.Fatal("persistent page failure must surface")
	}
	errs := ItemErrors(err2, len(refs))
	if !errors.Is(errs[0], faultinject.ErrInjected) {
		t.Fatalf("errs[0] = %v, want injected", errs[0])
	}
	for i := 1; i < 4; i++ {
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil (per-item granularity)", i, errs[i])
		}
		if len(out2[i]) != page || out2[i][0] != byte(i+1) {
			t.Errorf("page %d lost its data to a neighbour's failure", i)
		}
	}
}

// errBadSector is the identity carried by rangeFaultDev failures.
var errBadSector = errors.New("bad sector")

// rangeFaultDev models a device with bad extents: any read overlapping a bad
// byte range fails, whatever the request shape. This is how a merged read
// over a bad page actually fails — the whole scatter-gather request errors —
// unlike detail-keyed injection, which only fires on an exact request match.
// Batch reads fail per item, mirroring the terminal adapters.
type rangeFaultDev struct {
	next Handler
	bad  func(off int64, n int) bool
}

func (d *rangeFaultDev) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	if d.bad(ref.Off, ref.Len) {
		return nil, fmt.Errorf("%w: [%d,+%d)", errBadSector, ref.Off, ref.Len)
	}
	return d.next.ReadPage(ctx, ref)
}
func (d *rangeFaultDev) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	errs := make([]error, len(refs))
	for i, ref := range refs {
		out[i], errs[i] = d.ReadPage(ctx, ref)
	}
	return out, batchErr(errs)
}
func (d *rangeFaultDev) WritePage(ctx context.Context, req WriteReq) error {
	return d.next.WritePage(ctx, req)
}
func (d *rangeFaultDev) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	return d.next.WriteBatch(ctx, reqs)
}
func (d *rangeFaultDev) Delete(ctx context.Context, ref Ref) error {
	return d.next.Delete(ctx, ref)
}

// TestCoalesceErrorEquivalence is the property test: for random batches over
// random persistent bad pages, Coalesce(h) and h must agree item-by-item on
// both data and error identity — coalescing is a pure optimisation.
func TestCoalesceErrorEquivalence(t *testing.T) {
	ctx := context.Background()
	const page = 32
	const pages = 16
	rnd := rand.New(rand.NewSource(42))

	for trial := 0; trial < 100; trial++ {
		dev := blockdev.NewMem(blockdev.Config{Capacity: page * pages})
		seed := Chain(NewDevice(dev, nil))
		for i := 0; i < pages; i++ {
			if err := seed.WritePage(ctx, WriteReq{Ref: Ref{Off: int64(i * page)}, Data: fill(page, byte(i+1))}); err != nil {
				t.Fatalf("seed: %v", err)
			}
		}

		// A random subset of pages goes bad, persistently and identically
		// in both pipelines.
		bad := map[int]bool{}
		for i := 0; i < pages; i++ {
			if rnd.Intn(4) == 0 {
				bad[i] = true
			}
		}
		overlapsBad := func(off int64, n int) bool {
			for p := int(off) / page; p <= (int(off)+n-1)/page; p++ {
				if bad[p] {
					return true
				}
			}
			return false
		}

		// Random distinct pages, shuffled order.
		perm := rnd.Perm(pages)
		n := 2 + rnd.Intn(pages-2)
		refs := make([]Ref, n)
		for j := 0; j < n; j++ {
			refs[j] = Ref{Off: int64(perm[j] * page), Len: page}
		}

		bare := &rangeFaultDev{next: NewDevice(dev, nil), bad: overlapsBad}
		coal := Chain(&rangeFaultDev{next: NewDevice(dev, nil), bad: overlapsBad}, Coalesce(0))

		bOut, bErr := bare.ReadBatch(ctx, refs)
		cOut, cErr := coal.ReadBatch(ctx, refs)

		bErrs := ItemErrors(bErr, n)
		cErrs := ItemErrors(cErr, n)
		for j := 0; j < n; j++ {
			if (bErrs[j] == nil) != (cErrs[j] == nil) {
				t.Fatalf("trial %d ref %d (%s): error mismatch bare=%v coal=%v",
					trial, j, refs[j].Detail(), bErrs[j], cErrs[j])
			}
			if bErrs[j] != nil && !errors.Is(cErrs[j], errBadSector) {
				t.Fatalf("trial %d ref %d: coalesced error lost identity: %v", trial, j, cErrs[j])
			}
			if bErrs[j] == nil && string(bOut[j]) != string(cOut[j]) {
				t.Fatalf("trial %d ref %d: data mismatch", trial, j)
			}
		}
	}
}
