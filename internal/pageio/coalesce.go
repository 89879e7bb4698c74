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
// are not block refs, not adjacent, or part of an overlapping batch pass
// through untouched. Single operations are forwarded as-is.
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

// plan sorts the block-ref indices by offset and merges adjacent extents.
// It returns nil if merging is unsafe (overlapping extents) or useless
// (nothing adjacent).
func (c *coalesce) plan(off func(int) int64, length func(int) int, block []int) []span {
	sort.Slice(block, func(a, b int) bool { return off(block[a]) < off(block[b]) })
	var spans []span
	merged := false
	for _, i := range block {
		n := len(spans)
		if n > 0 {
			s := &spans[n-1]
			end := s.start + int64(s.size)
			if off(i) < end {
				return nil // overlap: do not reorder, let the batch through
			}
			if off(i) == end && s.size+length(i) <= c.max {
				s.size += length(i)
				s.idx = append(s.idx, i)
				merged = true
				continue
			}
		}
		spans = append(spans, span{start: off(i), size: length(i), idx: []int{i}})
	}
	if !merged {
		return nil
	}
	return spans
}

func (c *coalesce) ReadBatch(ctx context.Context, refs []Ref) ([][]byte, error) {
	var block []int
	for i, ref := range refs {
		if ref.IsBlock() {
			block = append(block, i)
		}
	}
	spans := c.plan(
		func(i int) int64 { return refs[i].Off },
		func(i int) int { return refs[i].Len },
		block,
	)
	if spans == nil {
		return c.next.ReadBatch(ctx, refs)
	}
	out := make([][]byte, len(refs))
	errs := make([]error, len(refs))

	// Merged and singleton block runs go down as one sub-batch of
	// scatter-gather refs, so the terminal's pool overlaps their latency;
	// the non-block refs ride through as a second sub-batch.
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
	if rest := otherIndices(len(refs), block); len(rest) > 0 {
		sub := make([]Ref, len(rest))
		for j, i := range rest {
			sub[j] = refs[i]
		}
		res, err := c.next.ReadBatch(ctx, sub)
		subErrs := ItemErrors(err, len(rest))
		for j, i := range rest {
			if res != nil {
				out[i] = res[j]
			}
			errs[i] = subErrs[j]
		}
	}
	return out, batchErr(errs)
}

func (c *coalesce) WriteBatch(ctx context.Context, reqs []WriteReq) error {
	var block []int
	for i, req := range reqs {
		if req.Ref.IsBlock() {
			block = append(block, i)
		}
	}
	spans := c.plan(
		func(i int) int64 { return reqs[i].Ref.Off },
		func(i int) int { return len(reqs[i].Data) },
		block,
	)
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
	if rest := otherIndices(len(reqs), block); len(rest) > 0 {
		sub := make([]WriteReq, len(rest))
		for j, i := range rest {
			sub[j] = reqs[i]
		}
		subErrs := ItemErrors(c.next.WriteBatch(ctx, sub), len(rest))
		for j, i := range rest {
			errs[i] = subErrs[j]
		}
	}
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

// otherIndices returns [0,n) minus the sorted-set semantics of block (which
// may be in any order).
func otherIndices(n int, block []int) []int {
	if len(block) == n {
		return nil
	}
	in := make(map[int]bool, len(block))
	for _, i := range block {
		in[i] = true
	}
	var rest []int
	for i := 0; i < n; i++ {
		if !in[i] {
			rest = append(rest, i)
		}
	}
	return rest
}
