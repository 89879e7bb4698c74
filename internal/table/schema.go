// Package table implements table storage on top of the buffer manager:
// rows are accumulated into segments, each column of a segment is encoded
// (dictionary / n-bit / RLE) and stored as one logical page, zone maps are
// kept per column per segment for early pruning, tables may be
// range-partitioned, and a parallel load engine ingests '|'-separated input
// files from an object store bucket — the TPC-H load path of the paper's
// evaluation.
package table

import (
	"fmt"

	"cloudiq/internal/column"
)

// ColumnDef describes one column. Date columns hold int64 days since the
// epoch and are parsed from yyyy-mm-dd input.
type ColumnDef struct {
	Name string
	Typ  column.Type
	Date bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []ColumnDef
}

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustCol returns the position of the named column, panicking if absent;
// used by hand-built query plans where a miss is a programming error.
func (s Schema) MustCol(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("table: no column %q", name))
	}
	return i
}

// Batch is a set of rows in columnar form. Vecs aligns with Schema.Cols
// (or with the projection requested from a read).
type Batch struct {
	Schema Schema
	Vecs   []*column.Vector
}

// NewBatch returns an empty batch with one vector per schema column.
func NewBatch(s Schema) *Batch {
	b := &Batch{Schema: s, Vecs: make([]*column.Vector, len(s.Cols))}
	for i, c := range s.Cols {
		b.Vecs[i] = column.NewVector(c.Typ)
	}
	return b
}

// Rows returns the number of rows in the batch.
func (b *Batch) Rows() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// Vec returns the vector of the named column, or nil if the batch has none;
// with Rows it makes a batch an expression environment (expr.Env).
func (b *Batch) Vec(name string) *column.Vector {
	if i := b.Schema.ColIndex(name); i >= 0 {
		return b.Vecs[i]
	}
	return nil
}

// Col returns the vector of the named column.
func (b *Batch) Col(name string) *column.Vector {
	return b.Vecs[b.Schema.MustCol(name)]
}
