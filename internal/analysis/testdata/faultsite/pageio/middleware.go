// Package pageio is a faultsite golden corpus: its directory base matches the
// pipeline package, so exported mutating operations must route through a
// faultinject hook or delegate the mutation to a covered boundary. Pipeline
// middleware conventionally hides behind unexported receiver types returned
// as interfaces — those are exempt by construction, and this corpus pins that
// contract.
package pageio

import (
	"context"

	"cloudiq/internal/faultinject"
	upstream "cloudiq/internal/pageio"
)

// NakedBuffer stages writes in memory with no fault hook and no delegation;
// a finding.
type NakedBuffer struct {
	pages map[int64][]byte
}

func (b *NakedBuffer) WritePage(ctx context.Context, off int64, data []byte) error { // want "faultsite: exported mutating operation NakedBuffer.WritePage has no faultinject site"
	if b.pages == nil {
		b.pages = make(map[int64][]byte)
	}
	b.pages[off] = append([]byte(nil), data...)
	return nil
}

// Delete reaches only the unhooked WritePage-style state above; a second
// independent finding.
func (b *NakedBuffer) Delete(ctx context.Context, off int64) error { // want "faultsite: exported mutating operation NakedBuffer.Delete has no faultinject site"
	delete(b.pages, off)
	return nil
}

// meter mirrors the real pipeline middleware idiom (pageio's meter, retry
// and coalesce stages): the type is unexported and escapes only as an
// interface, so its exported methods carry no faultsite obligation of their
// own — the terminal they wrap does.
type meter struct {
	next upstream.Handler
}

func (m *meter) WritePage(ctx context.Context, req upstream.WriteReq) error {
	return m.next.WritePage(ctx, req)
}

// HookedShim consults the plan before mutating; compliant.
type HookedShim struct {
	faults *faultinject.Plan
	bytes  int64
}

func (h *HookedShim) WriteBatch(ctx context.Context, pages [][]byte) error {
	for _, p := range pages {
		if err := h.faults.Check(faultinject.ObjPut, ""); err != nil {
			return err
		}
		h.bytes += int64(len(p))
	}
	return nil
}

// Forwarder delegates the mutation to the real pageio boundary, whose own
// faultsite obligations guarantee the hook; compliant.
type Forwarder struct {
	inner upstream.Handler
}

func (f *Forwarder) Delete(ctx context.Context, ref upstream.Ref) error {
	return f.inner.Delete(ctx, ref)
}
