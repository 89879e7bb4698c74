package tpch

import (
	"context"
	"fmt"

	"cloudiq"
)

// LoadAll creates the eight TPC-H tables in the named dbspace (with the
// paper's partitioning) inside tx and loads them from the .tbl objects under
// prefix in input, with the given intra-table parallelism. It returns total
// rows loaded. The caller commits tx.
func LoadAll(ctx context.Context, tx *cloudiq.Tx, space string, input cloudiq.ObjectStore, prefix string, sf float64, parallel, segRows int) (int64, error) {
	schemas := Schemas()
	opts := Options(sf, segRows)
	var total int64
	for _, name := range TableNames() {
		tbl, err := tx.CreateTable(ctx, space, name, schemas[name], opts[name])
		if err != nil {
			return total, fmt.Errorf("tpch: create %s: %w", name, err)
		}
		stats, err := cloudiq.Load(ctx, tbl, input, fmt.Sprintf("%s%s/", prefix, name), parallel)
		if err != nil {
			return total, fmt.Errorf("tpch: load %s: %w", name, err)
		}
		total += stats.Rows
	}
	return total, nil
}

// Conn is a query context: the eight tables opened read-only at one
// transaction's snapshot.
type Conn struct {
	tables map[string]*cloudiq.Table
}

// OpenConn opens every TPC-H table at tx's snapshot.
func OpenConn(ctx context.Context, tx *cloudiq.Tx, space string) (*Conn, error) {
	c := &Conn{tables: make(map[string]*cloudiq.Table)}
	for _, name := range TableNames() {
		tbl, err := tx.Table(ctx, space, name)
		if err != nil {
			return nil, fmt.Errorf("tpch: open %s: %w", name, err)
		}
		c.tables[name] = tbl
	}
	return c, nil
}

// Table returns one of the opened tables.
func (c *Conn) Table(name string) *cloudiq.Table { return c.tables[name] }
