package tpch

import (
	"context"
	"fmt"
	"time"

	"cloudiq"
)

// Expression shorthands for the query plans.
var (
	cref = cloudiq.Col
	iv   = cloudiq.ConstI
	fv   = cloudiq.ConstF
	sv   = cloudiq.ConstS
	add  = cloudiq.Add
	sub  = cloudiq.SubE
	mul  = cloudiq.MulE
	div  = cloudiq.DivE
	eq   = cloudiq.Eq
	ne   = cloudiq.Ne
	lt   = cloudiq.Lt
	le   = cloudiq.Le
	gt   = cloudiq.Gt
	ge   = cloudiq.GeE
	and2 = cloudiq.AndE
	or2  = cloudiq.OrE
	like = cloudiq.Like
)

func dt(y, m, d int) int64 {
	return cloudiq.DateToDays(y, time.Month(m), d)
}

// revenue is l_extendedprice * (1 - l_discount).
func revenue() cloudiq.Expr {
	return mul(cref("l_extendedprice"), sub(fv(1), cref("l_discount")))
}

// join wires two materialized batches through HashJoin.
func join(ctx context.Context, build *cloudiq.Batch, bkeys []string, probe *cloudiq.Batch, pkeys []string, typ cloudiq.JoinType) (*cloudiq.Batch, error) {
	return cloudiq.HashJoin(ctx, cloudiq.SliceSource(build), bkeys, cloudiq.SliceSource(probe), pkeys, typ)
}

// joinSrc joins a materialized build side against a streaming probe.
func joinSrc(ctx context.Context, build *cloudiq.Batch, bkeys []string, probe cloudiq.Source, pkeys []string, typ cloudiq.JoinType) (*cloudiq.Batch, error) {
	return cloudiq.HashJoin(ctx, cloudiq.SliceSource(build), bkeys, probe, pkeys, typ)
}

// agg aggregates a materialized batch.
func agg(ctx context.Context, b *cloudiq.Batch, groupBy []string, aggs []cloudiq.Agg) (*cloudiq.Batch, error) {
	return cloudiq.HashAgg(ctx, cloudiq.SliceSource(b), groupBy, aggs)
}

// Query runs benchmark query q (1–22) and returns its result.
func (c *Conn) Query(ctx context.Context, q int) (*cloudiq.Batch, error) {
	switch q {
	case 1:
		return c.q1(ctx)
	case 2:
		return c.q2(ctx)
	case 3:
		return c.q3(ctx)
	case 4:
		return c.q4(ctx)
	case 5:
		return c.q5(ctx)
	case 6:
		return c.q6(ctx)
	case 7:
		return c.q7(ctx)
	case 8:
		return c.q8(ctx)
	case 9:
		return c.q9(ctx)
	case 10:
		return c.q10(ctx)
	case 11:
		return c.q11(ctx)
	case 12:
		return c.q12(ctx)
	case 13:
		return c.q13(ctx)
	case 14:
		return c.q14(ctx)
	case 15:
		return c.q15(ctx)
	case 16:
		return c.q16(ctx)
	case 17:
		return c.q17(ctx)
	case 18:
		return c.q18(ctx)
	case 19:
		return c.q19(ctx)
	case 20:
		return c.q20(ctx)
	case 21:
		return c.q21(ctx)
	case 22:
		return c.q22(ctx)
	default:
		return nil, fmt.Errorf("tpch: no query %d", q)
	}
}

// q1: pricing summary report.
func (c *Conn) q1(ctx context.Context) (*cloudiq.Batch, error) {
	cutoff := dt(1998, 12, 1) - 90
	src, err := c.scan("lineitem",
		[]string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"},
		cloudiq.ScanOptions{
			Filter: le(cref("l_shipdate"), iv(cutoff)),
		})
	if err != nil {
		return nil, err
	}
	out, err := cloudiq.HashAgg(ctx, src, []string{"l_returnflag", "l_linestatus"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_quantity"), As: "sum_qty"},
		{Func: cloudiq.Sum, Expr: cref("l_extendedprice"), As: "sum_base_price"},
		{Func: cloudiq.Sum, Expr: revenue(), As: "sum_disc_price"},
		{Func: cloudiq.Sum, Expr: mul(revenue(), add(fv(1), cref("l_tax"))), As: "sum_charge"},
		{Func: cloudiq.Avg, Expr: cref("l_quantity"), As: "avg_qty"},
		{Func: cloudiq.Avg, Expr: cref("l_extendedprice"), As: "avg_price"},
		{Func: cloudiq.Avg, Expr: cref("l_discount"), As: "avg_disc"},
		{Func: cloudiq.Count, As: "count_order"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "l_returnflag"}, {Col: "l_linestatus"}})
}

// europeanSuppliers joins region(EUROPE) → nation → supplier.
func (c *Conn) nationsOfRegion(ctx context.Context, region string) (*cloudiq.Batch, error) {
	reg, err := c.collect(ctx, "region", []string{"r_regionkey", "r_name"},
		cloudiq.ScanOptions{Filter: eq(cref("r_name"), sv(region))})
	if err != nil {
		return nil, err
	}
	nat, err := c.scan("nation", []string{"n_nationkey", "n_name", "n_regionkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	return joinSrc(ctx, reg, []string{"r_regionkey"}, nat, []string{"n_regionkey"}, cloudiq.Inner)
}

// q2: minimum cost supplier.
func (c *Conn) q2(ctx context.Context) (*cloudiq.Batch, error) {
	nations, err := c.nationsOfRegion(ctx, "EUROPE")
	if err != nil {
		return nil, err
	}
	supp, err := c.scan("supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"},
		cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	esupp, err := joinSrc(ctx, nations, []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	ps, err := c.scan("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	eps, err := joinSrc(ctx, esupp, []string{"s_suppkey"}, ps, []string{"ps_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_mfgr", "p_size", "p_type"},
		cloudiq.ScanOptions{Filter: and2(eq(cref("p_size"), iv(15)), like(cref("p_type"), "%BRASS"))})
	if err != nil {
		return nil, err
	}
	full, err := join(ctx, part, []string{"p_partkey"}, eps, []string{"ps_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	minCost, err := agg(ctx, full, []string{"ps_partkey"}, []cloudiq.Agg{
		{Func: cloudiq.Min, Expr: cref("ps_supplycost"), As: "min_cost"},
	})
	if err != nil {
		return nil, err
	}
	minCost, err = cloudiq.Project(minCost, []cloudiq.NamedExpr{
		{Name: "mc_partkey", Expr: cref("ps_partkey")},
		{Name: "min_cost", Expr: cref("min_cost")},
	})
	if err != nil {
		return nil, err
	}
	matched, err := join(ctx, minCost, []string{"mc_partkey"}, full, []string{"ps_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	matched, err = cloudiq.FilterBatch(matched, eq(cref("ps_supplycost"), cref("min_cost")))
	if err != nil {
		return nil, err
	}
	out, err := cloudiq.Project(matched, []cloudiq.NamedExpr{
		{Name: "s_acctbal", Expr: cref("s_acctbal")},
		{Name: "s_name", Expr: cref("s_name")},
		{Name: "n_name", Expr: cref("n_name")},
		{Name: "p_partkey", Expr: cref("p_partkey")},
		{Name: "p_mfgr", Expr: cref("p_mfgr")},
		{Name: "s_address", Expr: cref("s_address")},
		{Name: "s_phone", Expr: cref("s_phone")},
		{Name: "s_comment", Expr: cref("s_comment")},
	})
	if err != nil {
		return nil, err
	}
	out, err = cloudiq.SortBatch(out, []cloudiq.SortKey{
		{Col: "s_acctbal", Desc: true}, {Col: "n_name"}, {Col: "s_name"}, {Col: "p_partkey"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.Limit(out, 100), nil
}

// q3: shipping priority.
func (c *Conn) q3(ctx context.Context) (*cloudiq.Batch, error) {
	cut := dt(1995, 3, 15)
	cust, err := c.collect(ctx, "customer", []string{"c_custkey", "c_mktsegment"},
		cloudiq.ScanOptions{Filter: eq(cref("c_mktsegment"), sv("BUILDING"))})
	if err != nil {
		return nil, err
	}
	ord, err := c.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		cloudiq.ScanOptions{
			Filter: lt(cref("o_orderdate"), iv(cut)),
		})
	if err != nil {
		return nil, err
	}
	co, err := joinSrc(ctx, cust, []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	li, err := c.scan("lineitem", []string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"},
		cloudiq.ScanOptions{Filter: gt(cref("l_shipdate"), iv(cut))})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, co, []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j, []string{"l_orderkey", "o_orderdate", "o_shippriority"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"},
	})
	if err != nil {
		return nil, err
	}
	out, err = cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "revenue", Desc: true}, {Col: "o_orderdate"}})
	if err != nil {
		return nil, err
	}
	return cloudiq.Limit(out, 10), nil
}

// q4: order priority checking.
func (c *Conn) q4(ctx context.Context) (*cloudiq.Batch, error) {
	lo, hi := dt(1993, 7, 1), dt(1993, 10, 1)
	late, err := c.collect(ctx, "lineitem", []string{"l_orderkey", "l_commitdate", "l_receiptdate"},
		cloudiq.ScanOptions{Filter: lt(cref("l_commitdate"), cref("l_receiptdate"))})
	if err != nil {
		return nil, err
	}
	ord, err := c.scan("orders", []string{"o_orderkey", "o_orderpriority", "o_orderdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("o_orderdate"), iv(lo)), lt(cref("o_orderdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	semi, err := joinSrc(ctx, late, []string{"l_orderkey"}, ord, []string{"o_orderkey"}, cloudiq.Semi)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, semi, []string{"o_orderpriority"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "order_count"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "o_orderpriority"}})
}

// q5: local supplier volume.
func (c *Conn) q5(ctx context.Context) (*cloudiq.Batch, error) {
	nations, err := c.nationsOfRegion(ctx, "ASIA")
	if err != nil {
		return nil, err
	}
	cust, err := c.scan("customer", []string{"c_custkey", "c_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	nc, err := joinSrc(ctx, nations, []string{"n_nationkey"}, cust, []string{"c_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	ord, err := c.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("o_orderdate"), iv(lo)), lt(cref("o_orderdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	nco, err := joinSrc(ctx, nc, []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	li, err := c.scan("lineitem", []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, nco, []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	// The supplier must be in the customer's nation.
	supp, err := c.collect(ctx, "supplier", []string{"s_suppkey", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, supp, []string{"s_suppkey", "s_nationkey"}, j, []string{"l_suppkey", "n_nationkey"}, cloudiq.Semi)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j, []string{"n_name"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "revenue", Desc: true}})
}

// q6: forecasting revenue change.
func (c *Conn) q6(ctx context.Context) (*cloudiq.Batch, error) {
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	src, err := c.scan("lineitem", []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"},
		cloudiq.ScanOptions{
			Filter: and2(
				and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))),
				and2(
					and2(ge(cref("l_discount"), fv(0.05)), le(cref("l_discount"), fv(0.07))),
					lt(cref("l_quantity"), fv(24)),
				),
			),
		})
	if err != nil {
		return nil, err
	}
	return cloudiq.HashAgg(ctx, src, nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: mul(cref("l_extendedprice"), cref("l_discount")), As: "revenue"},
	})
}

// q7: volume shipping between FRANCE and GERMANY.
func (c *Conn) q7(ctx context.Context) (*cloudiq.Batch, error) {
	nat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"},
		cloudiq.ScanOptions{Filter: or2(eq(cref("n_name"), sv("FRANCE")), eq(cref("n_name"), sv("GERMANY")))})
	if err != nil {
		return nil, err
	}
	suppNat, err := cloudiq.Project(nat, []cloudiq.NamedExpr{
		{Name: "sn_key", Expr: cref("n_nationkey")},
		{Name: "supp_nation", Expr: cref("n_name")},
	})
	if err != nil {
		return nil, err
	}
	custNat, err := cloudiq.Project(nat, []cloudiq.NamedExpr{
		{Name: "cn_key", Expr: cref("n_nationkey")},
		{Name: "cust_nation", Expr: cref("n_name")},
	})
	if err != nil {
		return nil, err
	}
	supp, err := c.scan("supplier", []string{"s_suppkey", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	s2, err := joinSrc(ctx, suppNat, []string{"sn_key"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	cust, err := c.scan("customer", []string{"c_custkey", "c_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	c2, err := joinSrc(ctx, custNat, []string{"cn_key"}, cust, []string{"c_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	ord, err := c.scan("orders", []string{"o_orderkey", "o_custkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	o2, err := joinSrc(ctx, c2, []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	lo, hi := dt(1995, 1, 1), dt(1996, 12, 31)
	li, err := c.scan("lineitem", []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("l_shipdate"), iv(lo)), le(cref("l_shipdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, o2, []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, s2, []string{"s_suppkey"}, j, []string{"l_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = cloudiq.FilterBatch(j, or2(
		and2(eq(cref("supp_nation"), sv("FRANCE")), eq(cref("cust_nation"), sv("GERMANY"))),
		and2(eq(cref("supp_nation"), sv("GERMANY")), eq(cref("cust_nation"), sv("FRANCE"))),
	))
	if err != nil {
		return nil, err
	}
	j, err = cloudiq.Project(j, []cloudiq.NamedExpr{
		{Name: "supp_nation", Expr: cref("supp_nation")},
		{Name: "cust_nation", Expr: cref("cust_nation")},
		{Name: "l_year", Expr: cloudiq.YearE(cref("l_shipdate"))},
		{Name: "volume", Expr: revenue()},
	})
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j, []string{"supp_nation", "cust_nation", "l_year"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("volume"), As: "revenue"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "supp_nation"}, {Col: "cust_nation"}, {Col: "l_year"}})
}

// q8: national market share.
func (c *Conn) q8(ctx context.Context) (*cloudiq.Batch, error) {
	nations, err := c.nationsOfRegion(ctx, "AMERICA")
	if err != nil {
		return nil, err
	}
	cust, err := c.scan("customer", []string{"c_custkey", "c_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	rc, err := joinSrc(ctx, nations, []string{"n_nationkey"}, cust, []string{"c_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	lo, hi := dt(1995, 1, 1), dt(1996, 12, 31)
	ord, err := c.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("o_orderdate"), iv(lo)), le(cref("o_orderdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	ro, err := joinSrc(ctx, rc, []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	li, err := c.scan("lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, ro, []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_type"},
		cloudiq.ScanOptions{Filter: eq(cref("p_type"), sv("ECONOMY ANODIZED STEEL"))})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, part, []string{"p_partkey"}, j, []string{"l_partkey"}, cloudiq.Semi)
	if err != nil {
		return nil, err
	}
	// Supplier nation name for the BRAZIL share.
	supp, err := c.collect(ctx, "supplier", []string{"s_suppkey", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, supp, []string{"s_suppkey"}, j, []string{"l_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	allNat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	supNat, err := cloudiq.Project(allNat, []cloudiq.NamedExpr{
		{Name: "sup_nkey", Expr: cref("n_nationkey")},
		{Name: "sup_nation", Expr: cref("n_name")},
	})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, supNat, []string{"sup_nkey"}, j, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = cloudiq.Project(j, []cloudiq.NamedExpr{
		{Name: "o_year", Expr: cloudiq.YearE(cref("o_orderdate"))},
		{Name: "volume", Expr: revenue()},
		{Name: "brazil_volume", Expr: cloudiq.CaseE(eq(cref("sup_nation"), sv("BRAZIL")), revenue(), fv(0))},
	})
	if err != nil {
		return nil, err
	}
	sums, err := agg(ctx, j, []string{"o_year"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("brazil_volume"), As: "brazil"},
		{Func: cloudiq.Sum, Expr: cref("volume"), As: "total"},
	})
	if err != nil {
		return nil, err
	}
	out, err := cloudiq.Project(sums, []cloudiq.NamedExpr{
		{Name: "o_year", Expr: cref("o_year")},
		{Name: "mkt_share", Expr: div(cref("brazil"), cref("total"))},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "o_year"}})
}

// q9: product type profit measure.
func (c *Conn) q9(ctx context.Context) (*cloudiq.Batch, error) {
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_name"},
		cloudiq.ScanOptions{Filter: like(cref("p_name"), "%green%")})
	if err != nil {
		return nil, err
	}
	li, err := c.scan("lineitem",
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"},
		cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, part, []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Semi)
	if err != nil {
		return nil, err
	}
	ps, err := c.collect(ctx, "partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, ps, []string{"ps_partkey", "ps_suppkey"}, j, []string{"l_partkey", "l_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	supp, err := c.collect(ctx, "supplier", []string{"s_suppkey", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, supp, []string{"s_suppkey"}, j, []string{"l_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	nat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, nat, []string{"n_nationkey"}, j, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	ord, err := c.collect(ctx, "orders", []string{"o_orderkey", "o_orderdate"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, ord, []string{"o_orderkey"}, j, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = cloudiq.Project(j, []cloudiq.NamedExpr{
		{Name: "nation", Expr: cref("n_name")},
		{Name: "o_year", Expr: cloudiq.YearE(cref("o_orderdate"))},
		{Name: "amount", Expr: sub(revenue(), mul(cref("ps_supplycost"), cref("l_quantity")))},
	})
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j, []string{"nation", "o_year"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("amount"), As: "sum_profit"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "nation"}, {Col: "o_year", Desc: true}})
}

// q10: returned item reporting.
func (c *Conn) q10(ctx context.Context) (*cloudiq.Batch, error) {
	lo, hi := dt(1993, 10, 1), dt(1994, 1, 1)
	ord, err := c.collect(ctx, "orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("o_orderdate"), iv(lo)), lt(cref("o_orderdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	li, err := c.scan("lineitem", []string{"l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"},
		cloudiq.ScanOptions{Filter: eq(cref("l_returnflag"), sv("R"))})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, ord, []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	cust, err := c.collect(ctx, "customer",
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey", "c_address", "c_comment"},
		cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, cust, []string{"c_custkey"}, j, []string{"o_custkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	nat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, nat, []string{"n_nationkey"}, j, []string{"c_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j,
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		[]cloudiq.Agg{{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"}})
	if err != nil {
		return nil, err
	}
	out, err = cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "revenue", Desc: true}})
	if err != nil {
		return nil, err
	}
	return cloudiq.Limit(out, 20), nil
}

// q11: important stock identification.
func (c *Conn) q11(ctx context.Context) (*cloudiq.Batch, error) {
	nat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"},
		cloudiq.ScanOptions{Filter: eq(cref("n_name"), sv("GERMANY"))})
	if err != nil {
		return nil, err
	}
	supp, err := c.scan("supplier", []string{"s_suppkey", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	gs, err := joinSrc(ctx, nat, []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	ps, err := c.scan("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, gs, []string{"s_suppkey"}, ps, []string{"ps_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	value, err := agg(ctx, j, []string{"ps_partkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: mul(cref("ps_supplycost"), cref("ps_availqty")), As: "value"},
	})
	if err != nil {
		return nil, err
	}
	total, err := agg(ctx, value, nil, []cloudiq.Agg{{Func: cloudiq.Sum, Expr: cref("value"), As: "grand"}})
	if err != nil {
		return nil, err
	}
	// HAVING value > grand_total * fraction; the spec scales the fraction
	// with 1/SF (estimated here from the supplier cardinality).
	sf := float64(c.tables["supplier"].Rows()) / supplierBase
	if sf <= 0 {
		sf = 1
	}
	threshold := total.Col("grand").F64[0] * 0.0001 / sf
	out, err := cloudiq.FilterBatch(value, gt(cref("value"), fv(threshold)))
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "value", Desc: true}})
}
