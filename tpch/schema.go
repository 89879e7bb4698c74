// Package tpch implements the paper's evaluation workload from scratch: a
// deterministic dbgen-compatible data generator for the eight TPC-H tables
// (parameterized by scale factor, emitting '|'-separated input files into an
// object-store bucket, as the paper's loads do), table definitions matching
// the paper's setup (range-partitioned tables), and all 22 benchmark queries
// as hand-built physical plans over the cloudiq engine. Power runs (Q1–Q22
// sequentially) and throughput runs (parallel permuted query streams) drive
// the experiments.
package tpch

import (
	"cloudiq"
)

// Table names in dependency/load order.
var names = []string{
	"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
}

// TableNames returns the eight TPC-H tables in load order.
func TableNames() []string { return append([]string(nil), names...) }

func col(name string, t cloudiq.Type) cloudiq.ColumnDef {
	return cloudiq.ColumnDef{Name: name, Typ: t}
}

func date(name string) cloudiq.ColumnDef {
	return cloudiq.ColumnDef{Name: name, Typ: cloudiq.Int64, Date: true}
}

// Schemas returns the schema of every TPC-H table. Decimals are float64,
// dates are int64 days.
func Schemas() map[string]cloudiq.Schema {
	return map[string]cloudiq.Schema{
		"region": {Cols: []cloudiq.ColumnDef{
			col("r_regionkey", cloudiq.Int64),
			col("r_name", cloudiq.String),
			col("r_comment", cloudiq.String),
		}},
		"nation": {Cols: []cloudiq.ColumnDef{
			col("n_nationkey", cloudiq.Int64),
			col("n_name", cloudiq.String),
			col("n_regionkey", cloudiq.Int64),
			col("n_comment", cloudiq.String),
		}},
		"supplier": {Cols: []cloudiq.ColumnDef{
			col("s_suppkey", cloudiq.Int64),
			col("s_name", cloudiq.String),
			col("s_address", cloudiq.String),
			col("s_nationkey", cloudiq.Int64),
			col("s_phone", cloudiq.String),
			col("s_acctbal", cloudiq.Float64),
			col("s_comment", cloudiq.String),
		}},
		"customer": {Cols: []cloudiq.ColumnDef{
			col("c_custkey", cloudiq.Int64),
			col("c_name", cloudiq.String),
			col("c_address", cloudiq.String),
			col("c_nationkey", cloudiq.Int64),
			col("c_phone", cloudiq.String),
			col("c_acctbal", cloudiq.Float64),
			col("c_mktsegment", cloudiq.String),
			col("c_comment", cloudiq.String),
		}},
		"part": {Cols: []cloudiq.ColumnDef{
			col("p_partkey", cloudiq.Int64),
			col("p_name", cloudiq.String),
			col("p_mfgr", cloudiq.String),
			col("p_brand", cloudiq.String),
			col("p_type", cloudiq.String),
			col("p_size", cloudiq.Int64),
			col("p_container", cloudiq.String),
			col("p_retailprice", cloudiq.Float64),
			col("p_comment", cloudiq.String),
		}},
		"partsupp": {Cols: []cloudiq.ColumnDef{
			col("ps_partkey", cloudiq.Int64),
			col("ps_suppkey", cloudiq.Int64),
			col("ps_availqty", cloudiq.Int64),
			col("ps_supplycost", cloudiq.Float64),
			col("ps_comment", cloudiq.String),
		}},
		"orders": {Cols: []cloudiq.ColumnDef{
			col("o_orderkey", cloudiq.Int64),
			col("o_custkey", cloudiq.Int64),
			col("o_orderstatus", cloudiq.String),
			col("o_totalprice", cloudiq.Float64),
			date("o_orderdate"),
			col("o_orderpriority", cloudiq.String),
			col("o_clerk", cloudiq.String),
			col("o_shippriority", cloudiq.Int64),
			col("o_comment", cloudiq.String),
		}},
		"lineitem": {Cols: []cloudiq.ColumnDef{
			col("l_orderkey", cloudiq.Int64),
			col("l_partkey", cloudiq.Int64),
			col("l_suppkey", cloudiq.Int64),
			col("l_linenumber", cloudiq.Int64),
			col("l_quantity", cloudiq.Float64),
			col("l_extendedprice", cloudiq.Float64),
			col("l_discount", cloudiq.Float64),
			col("l_tax", cloudiq.Float64),
			col("l_returnflag", cloudiq.String),
			col("l_linestatus", cloudiq.String),
			date("l_shipdate"),
			date("l_commitdate"),
			date("l_receiptdate"),
			col("l_shipinstruct", cloudiq.String),
			col("l_shipmode", cloudiq.String),
			col("l_comment", cloudiq.String),
		}},
	}
}

// Options returns the paper's table options: range partitioning on the
// leading key. Partition bounds scale with sf; segRows sets the segment
// size (0 selects the engine default).
func Options(sf float64, segRows int) map[string]cloudiq.TableOptions {
	orders := int64(float64(ordersBase) * sf)
	parts := int64(float64(partBase) * sf)
	custs := int64(float64(customerBase) * sf)
	quarter := func(total int64, i int64) int64 {
		if total < 4 {
			return i + 1
		}
		return total / 4 * i
	}
	bounds := func(total int64) []int64 {
		return []int64{quarter(total, 1), quarter(total, 2), quarter(total, 3)}
	}
	out := map[string]cloudiq.TableOptions{
		"region":   {},
		"nation":   {},
		"supplier": {},
		"customer": {PartitionCol: "c_custkey", PartitionBounds: bounds(custs)},
		"part":     {PartitionCol: "p_partkey", PartitionBounds: bounds(parts)},
		"partsupp": {PartitionCol: "ps_partkey", PartitionBounds: bounds(parts)},
		"orders":   {PartitionCol: "o_orderkey", PartitionBounds: bounds(orders * 4)},
		"lineitem": {PartitionCol: "l_orderkey", PartitionBounds: bounds(orders * 4)},
	}
	for name, o := range out {
		o.SegRows = segRows
		out[name] = o
	}
	return out
}
