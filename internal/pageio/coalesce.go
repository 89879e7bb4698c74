package pageio

import (
	"context"
	"sort"

	"cloudiq/internal/trace"
)

// DefaultCoalesceBytes bounds a merged request when Coalesce is built with
// maxBytes <= 0.
const DefaultCoalesceBytes = 1 << 20

// Coalesce returns a middleware that merges adjacent block-device extents
// inside a batch: a ReadBatch whose refs tile a contiguous byte range
// becomes one scatter-gather ReadPage, and a WriteBatch of adjacent pages
// becomes one group write. Merged requests never exceed maxBytes. Refs that
// are not adjacent pass through as they are; a batch holding any key ref, or
// overlapping extents, passes through whole. Single operations are
// forwarded as-is.
func Coalesce(maxBytes int) Middleware {
	if maxBytes <= 0 {
		maxBytes = DefaultCoalesceBytes
	}
	return func(next Handler) Handler {
		return &coalesce{next: next, max: maxBytes}
	}
}

type coalesce struct {
	next Handler
	max  int
}

func (c *coalesce) ReadPage(ctx context.Context, ref Ref) ([]byte, error) {
	return c.next.ReadPage(ctx, ref)
}

func (c *coalesce) WritePage(ctx context.Context, req WriteReq) error {
	return c.next.WritePage(ctx, req)
}

func (c *coalesce) Delete(ctx context.Context, ref Ref) error {
	return c.next.Delete(ctx, ref)
}

// span is one merged run: original batch indices in device order, covering
// [start, start+size).
type span struct {
	start int64
	size  int
	idx   []int
}

// plan sorts the n batch indices by offset and merges adjacent extents;
// extent(i) is item i's ref and length. It returns nil if merging does not
// apply (a key ref in the batch), is unsafe (overlapping extents) or is
// useless (nothing adjacent).
func (c *coalesce) plan(n int, extent func(int) (Ref, int)) []span {
	idx := make([]int, n)
	for i := range idx {
		if ref, _ := extent(i); !ref.IsBlock() {
			return nil
		}
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, _ := extent(idx[a])
		rb, _ := extent(idx[b])
		return ra.Off < rb.Off
	})
	var spans []span
	merged := false
	for _, i := range idx {
		ref, length := extent(i)
		if k := len(spans); k > 0 {
			s := &spans[k-1]
			end := s.start + int64(s.size)
			if ref.Off < end {
				return nil // overlap: do not reorder, let the batch through
			}
			if ref.Off == end && s.size+length <= c.max {
				s.size += length
				s.idx = append(s.idx, i)
				merged = true
				continue
			}
		}
		spans = append(spans, span{start: ref.Off, size: length, idx: []int{i}})
	}
	if !merged {
		return nil
	}
	return spans
}

func (c *coalesce) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	spans := c.plan(len(refs), func(i int) (Ref, int) { return refs[i], refs[i].Len })
	if spans == nil {
		return c.next.ReadBatch(ctx, refs)
	}
	out := make([][]byte, len(refs))
	errs := make([]error, len(refs))

	// Merged and singleton runs go down as one batch of scatter-gather
	// refs, so the terminal's pool overlaps their latency.
	mrefs := make([]Ref, len(spans))
	for j, s := range spans {
		mrefs[j] = Ref{Off: s.start, Len: s.size}
	}
	res, err := c.next.ReadBatch(ctx, mrefs)
	spanErrs := ItemErrors(err, len(spans))
	// A failed merged span must not smear one extent's error across every
	// member ref: degrade to individual reads so each page reports its own
	// outcome, exactly as the uncoalesced path would. Singleton spans were
	// already individual reads, so their error stands.
	var fallback []int
	for j, s := range spans {
		if spanErrs[j] != nil && len(s.idx) > 1 {
			fallback = append(fallback, s.idx...)
			continue
		}
		pos := 0
		for _, i := range s.idx {
			if spanErrs[j] != nil {
				errs[i] = spanErrs[j]
			} else if res != nil && res[j] != nil {
				page := make([]byte, refs[i].Len)
				copy(page, res[j][pos:pos+refs[i].Len])
				out[i] = page
			}
			pos += refs[i].Len
		}
	}
	if len(fallback) > 0 {
		sub := make([]Ref, len(fallback))
		for j, i := range fallback {
			sub[j] = refs[i]
		}
		fres, ferr := c.next.ReadBatch(ctx, sub)
		fErrs := ItemErrors(ferr, len(fallback))
		for j, i := range fallback {
			if fres != nil {
				out[i] = fres[j]
			}
			errs[i] = fErrs[j]
		}
	}
	noteMerge(ctx, len(refs), len(spans), len(fallback))
	return out, batchErr(errs)
}

func (c *coalesce) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	spans := c.plan(len(reqs), func(i int) (Ref, int) { return reqs[i].Ref, len(reqs[i].Data) })
	if spans == nil {
		return c.next.WriteBatch(ctx, reqs)
	}
	errs := make([]error, len(reqs))
	mreqs := make([]WriteReq, len(spans))
	for j, s := range spans {
		if len(s.idx) == 1 {
			mreqs[j] = reqs[s.idx[0]]
			continue
		}
		buf := make([]byte, 0, s.size)
		for _, i := range s.idx {
			buf = append(buf, reqs[i].Data...)
		}
		mreqs[j] = WriteReq{Ref: Ref{Off: s.start}, Data: buf}
	}
	spanErrs := ItemErrors(c.next.WriteBatch(ctx, mreqs), len(spans))
	for j, s := range spans {
		for _, i := range s.idx {
			errs[i] = spanErrs[j]
		}
	}
	noteMerge(ctx, len(reqs), len(spans), 0)
	return batchErr(errs)
}

// noteMerge records a merge decision on the context's span: how many refs
// collapsed into how many device requests, and how many fell back to
// individual reads after a merged span failed.
func noteMerge(ctx context.Context, refs, spans, fallback int) {
	sp := trace.From(ctx)
	if sp == nil {
		return
	}
	sp.AddInt("coalesce.refs", int64(refs))
	sp.AddInt("coalesce.spans", int64(spans))
	if fallback > 0 {
		sp.AddInt("coalesce.fallback", int64(fallback))
	}
}
