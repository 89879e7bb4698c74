package expr

import (
	"slices"

	"cloudiq/internal/column"
)

// Filter is a predicate prepared once for the Selects of many segments. Its
// top-level conjuncts run in order, as Select runs an AND; a conjunct that
// reads exactly one column, a string one, is a function of that column's
// value alone, so over a Segment whose page of the column is a dictionary it
// runs once per word and keeps rows by their word's code (code space).
type Filter struct {
	terms []term
}

// term is one conjunct and the string column it alone reads, "" for a
// conjunct that reads another column too, or none.
type term struct {
	e   *Node
	col string
}

// Prepare splits e into its conjuncts and marks those that may run in code
// space: the ones whose every column reference names one column that
// isString accepts. A nil e gives a nil Filter. Which conjuncts qualify is
// decided here, once, so a conjunct that does not runs Node.Select on every
// segment, as the AND it came from would.
func Prepare(e *Node, isString func(col string) bool) *Filter {
	if e == nil {
		return nil
	}
	f := &Filter{}
	var split func(n *Node)
	split = func(n *Node) {
		if n != nil && n.Op == OpAnd && n.check() == nil {
			split(n.Args[0])
			split(n.Args[1])
			return
		}
		col, one := n.onlyColumn()
		if !one || !isString(col) {
			col = ""
		}
		f.terms = append(f.terms, term{n, col})
	}
	split(e)
	return f
}

// onlyColumn returns the column the tree reads, if it reads exactly one.
func (e *Node) onlyColumn() (string, bool) {
	col, one, seen := "", true, false
	e.EachCol(func(name string) {
		one = one && (!seen || name == col)
		col, seen = name, true
	})
	return col, one && seen
}

// EachCol calls f with the name of every column reference in the tree.
func (e *Node) EachCol(f func(name string)) {
	if e == nil {
		return
	}
	if e.Op == OpCol {
		f(e.Col)
	}
	for _, a := range e.Args {
		a.EachCol(f)
	}
}

// Select is Node.Select of the prepared tree over seg: it keeps the same
// rows of sel and fails exactly when that would. A code-space conjunct whose
// column's page is a dictionary runs over the page's words instead of its
// rows; no Eval error depends on a value, so it fails over the words exactly
// when it would over the rows.
func (f *Filter) Select(seg *Segment, sel []int32) ([]int32, error) {
	for _, t := range f.terms {
		var err error
		if d := seg.dict(t.col); d != nil {
			sel, err = seg.selectCodes(t.e, t.col, d, sel)
		} else {
			sel, err = t.e.Select(seg, sel)
		}
		if err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// Segment is the expression environment over one table segment's encoded
// pages: the one the reader's scan (internal/exec) and the store's select
// (internal/objstore) filter in. Vec decodes a column whole on its first use;
// a code-space conjunct of a Filter opens a dictionary page as its words and
// codes instead; Values materialises a column at a selection from whichever
// form it is held in. Reset reuses a Segment for the next segment.
type Segment struct {
	names []string
	pages [][]byte
	rows  int

	vecs   []*column.Vector // decoded whole, by Vec
	dicts  []column.Dict    // opened by a code-space conjunct where coded is set
	coded  []bool
	err    error // the first page that failed to decode
	errCol int

	words wordEnv // the environment a code-space conjunct runs over
	wsel  []int32
	truth []bool
}

// NewSegment returns an environment over one segment's pages, parallel to
// names, each holding rows values (the caller has checked the headers).
func NewSegment(names []string, pages [][]byte, rows int) *Segment {
	s := &Segment{}
	s.Reset(names, pages, rows)
	return s
}

// Reset points s at another segment's pages, keeping the buffers it grew:
// the codes, the word selection and the truth table. Nothing s returned
// before is touched again — the vectors are the caller's, and the codes
// never leave it. Reset(nil, nil, 0) lets go of the pages and vectors.
func (s *Segment) Reset(names []string, pages [][]byte, rows int) {
	clear(s.vecs)
	clear(s.coded)
	for i := range s.dicts {
		s.dicts[i].Words = nil
	}
	s.names, s.pages, s.rows, s.err = names, pages, rows, nil
	s.words = wordEnv{}
	n := len(pages)
	s.vecs = slices.Grow(s.vecs[:0], n)[:n]
	s.coded = slices.Grow(s.coded[:0], n)[:n]
	if len(s.dicts) < n {
		s.dicts = append(s.dicts, make([]column.Dict, n-len(s.dicts))...)
	}
}

// Rows implements Env.
func (s *Segment) Rows() int { return s.rows }

// Vec implements Env: the named column decoded whole, nil when there is no
// such column or its page does not decode (Err says which).
func (s *Segment) Vec(name string) *column.Vector {
	i := slices.Index(s.names, name)
	if i < 0 {
		return nil
	}
	if s.vecs[i] == nil {
		v, err := s.Values(i, nil)
		if err != nil {
			if s.err == nil {
				s.err, s.errCol = err, i
			}
			return nil
		}
		s.vecs[i] = v
	}
	return s.vecs[i]
}

// Err returns the first page that failed to decode while the environment was
// evaluated, by position, and its error; a Select that failed over such a
// page reports a missing column, and this is the cause.
func (s *Segment) Err() (int, error) { return s.errCol, s.err }

// Values returns column i at the selected rows, every row when sel is nil:
// gathered from the decoded vector, looked up in the opened dictionary, or
// else decoded from the page at those rows only.
func (s *Segment) Values(i int, sel []int32) (*column.Vector, error) {
	switch v := s.vecs[i]; {
	case v != nil && sel == nil:
		return v, nil
	case v != nil:
		return v.Gather(sel), nil
	case s.coded[i]:
		return s.dicts[i].Values(sel), nil
	case sel == nil:
		return column.DecodeSegment(s.pages[i])
	}
	return column.DecodeSegmentRows(s.pages[i], sel)
}

// dict returns the named column as an opened dictionary page, or nil when it
// is absent, already decoded, not a dictionary or does not open (the row path
// then meets the same error through Vec).
func (s *Segment) dict(name string) *column.Dict {
	if name == "" {
		return nil
	}
	i := slices.Index(s.names, name)
	if i < 0 || s.vecs[i] != nil {
		return nil
	}
	d := &s.dicts[i]
	if !s.coded[i] {
		ok, err := d.Open(s.pages[i])
		if !ok || err != nil {
			return nil
		}
		s.coded[i] = true
	}
	return d
}

// selectCodes runs e, which reads only column col, over the words of its
// dictionary page d, and keeps the rows of sel whose code names a word e
// kept. Over an empty sel the words are still shown to e, none selected, so
// its errors are those of the row path.
func (s *Segment) selectCodes(e *Node, col string, d *column.Dict, sel []int32) ([]int32, error) {
	nw := len(d.Words)
	s.words = wordEnv{col, column.Vector{Typ: column.String, Str: d.Words}}
	s.wsel = s.wsel[:0]
	if len(sel) > 0 {
		for w := range nw {
			s.wsel = append(s.wsel, int32(w))
		}
	}
	kept, err := e.Select(&s.words, s.wsel)
	if err != nil {
		return nil, err
	}
	truth := slices.Grow(s.truth[:0], nw)[:nw]
	clear(truth)
	for _, w := range kept {
		truth[w] = true
	}
	s.truth = truth
	n := 0
	for _, r := range sel {
		sel[n] = r
		if truth[d.Codes[r]] {
			n++
		}
	}
	return sel[:n], nil
}

// wordEnv is a dictionary's words as the one column of an environment.
type wordEnv struct {
	name string
	v    column.Vector
}

func (w *wordEnv) Vec(name string) *column.Vector {
	if name != w.name {
		return nil
	}
	return &w.v
}

func (w *wordEnv) Rows() int { return len(w.v.Str) }
