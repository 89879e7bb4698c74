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
	src  = cloudiq.SliceSource
)

func dt(y, m, d int) int64 {
	return cloudiq.DateToDays(y, time.Month(m), d)
}

// revenue is l_extendedprice * (1 - l_discount).
func revenue() cloudiq.Expr {
	return mul(cref("l_extendedprice"), sub(fv(1), cref("l_discount")))
}

// plan runs one query's physical plan. Each method runs its cloudiq
// operator at once, in the order the query calls it, and keeps the first
// error; once p.err is set every later step does nothing and returns nil,
// and Query returns that error. A query that reads a value out of an
// intermediate batch checks p.err first.
type plan struct {
	ctx context.Context
	c   *Conn
	err error
}

// scan opens a scan of the named table; a nil filter keeps every row.
func (p *plan) scan(table string, cols []string, filter cloudiq.Expr) (s cloudiq.Source) {
	if p.err == nil {
		s, p.err = cloudiq.Scan(p.c.tables[table], cols, cloudiq.ScanOptions{Filter: filter})
	}
	return s
}

// collect scans and materializes in one step.
func (p *plan) collect(table string, cols []string, filter cloudiq.Expr) (b *cloudiq.Batch) {
	if s := p.scan(table, cols, filter); p.err == nil {
		b, p.err = cloudiq.Collect(p.ctx, s)
	}
	return b
}

func (p *plan) join(build cloudiq.Source, bkeys []string, probe cloudiq.Source, pkeys []string, typ cloudiq.JoinType) (b *cloudiq.Batch) {
	if p.err == nil {
		b, p.err = cloudiq.HashJoin(p.ctx, build, bkeys, probe, pkeys, typ)
	}
	return b
}

func (p *plan) agg(in cloudiq.Source, groupBy []string, aggs []cloudiq.Agg) (b *cloudiq.Batch) {
	if p.err == nil {
		b, p.err = cloudiq.HashAgg(p.ctx, in, groupBy, aggs)
	}
	return b
}

func (p *plan) filter(in *cloudiq.Batch, pred cloudiq.Expr) (b *cloudiq.Batch) {
	if p.err == nil {
		b, p.err = cloudiq.FilterBatch(in, pred)
	}
	return b
}

func (p *plan) project(in *cloudiq.Batch, exprs []cloudiq.NamedExpr) (b *cloudiq.Batch) {
	if p.err == nil {
		b, p.err = cloudiq.Project(in, exprs)
	}
	return b
}

func (p *plan) sort(in *cloudiq.Batch, keys []cloudiq.SortKey) (b *cloudiq.Batch) {
	if p.err == nil {
		b, p.err = cloudiq.SortBatch(in, keys)
	}
	return b
}

func (p *plan) limit(in *cloudiq.Batch, n int) *cloudiq.Batch {
	if p.err != nil {
		return nil
	}
	return cloudiq.Limit(in, n)
}

// queries holds the 22 plans: queries[q-1] is Qq.
var queries = [22]func(*plan) *cloudiq.Batch{
	q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11,
	q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22,
}

// Query runs benchmark query q (1–22) and returns its result.
func (c *Conn) Query(ctx context.Context, q int) (*cloudiq.Batch, error) {
	if q < 1 || q > len(queries) {
		return nil, fmt.Errorf("tpch: no query %d", q)
	}
	p := &plan{ctx: ctx, c: c}
	out := queries[q-1](p)
	if p.err != nil {
		return nil, p.err
	}
	return out, nil
}

// q1: pricing summary report.
func q1(p *plan) *cloudiq.Batch {
	cutoff := dt(1998, 12, 1) - 90
	li := p.scan("lineitem",
		[]string{"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"},
		le(cref("l_shipdate"), iv(cutoff)))
	out := p.agg(li, []string{"l_returnflag", "l_linestatus"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_quantity"), As: "sum_qty"},
		{Func: cloudiq.Sum, Expr: cref("l_extendedprice"), As: "sum_base_price"},
		{Func: cloudiq.Sum, Expr: revenue(), As: "sum_disc_price"},
		{Func: cloudiq.Sum, Expr: mul(revenue(), add(fv(1), cref("l_tax"))), As: "sum_charge"},
		{Func: cloudiq.Avg, Expr: cref("l_quantity"), As: "avg_qty"},
		{Func: cloudiq.Avg, Expr: cref("l_extendedprice"), As: "avg_price"},
		{Func: cloudiq.Avg, Expr: cref("l_discount"), As: "avg_disc"},
		{Func: cloudiq.Count, As: "count_order"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "l_returnflag"}, {Col: "l_linestatus"}})
}

// nationsOfRegion joins region (the one named) → nation.
func nationsOfRegion(p *plan, region string) *cloudiq.Batch {
	reg := p.collect("region", []string{"r_regionkey", "r_name"},
		eq(cref("r_name"), sv(region)))
	nat := p.scan("nation", []string{"n_nationkey", "n_name", "n_regionkey"}, nil)
	return p.join(src(reg), []string{"r_regionkey"}, nat, []string{"n_regionkey"}, cloudiq.Inner)
}

// q2: minimum cost supplier.
func q2(p *plan) *cloudiq.Batch {
	nations := nationsOfRegion(p, "EUROPE")
	supp := p.scan("supplier",
		[]string{"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"},
		nil)
	esupp := p.join(src(nations), []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	ps := p.scan("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}, nil)
	eps := p.join(src(esupp), []string{"s_suppkey"}, ps, []string{"ps_suppkey"}, cloudiq.Inner)
	part := p.collect("part", []string{"p_partkey", "p_mfgr", "p_size", "p_type"},
		and2(eq(cref("p_size"), iv(15)), like(cref("p_type"), "%BRASS")))
	full := p.join(src(part), []string{"p_partkey"}, src(eps), []string{"ps_partkey"}, cloudiq.Inner)
	minCost := p.agg(src(full), []string{"ps_partkey"}, []cloudiq.Agg{
		{Func: cloudiq.Min, Expr: cref("ps_supplycost"), As: "min_cost"},
	})
	minCost = p.project(minCost, []cloudiq.NamedExpr{
		{Name: "mc_partkey", Expr: cref("ps_partkey")},
		{Name: "min_cost", Expr: cref("min_cost")},
	})
	matched := p.join(src(minCost), []string{"mc_partkey"}, src(full), []string{"ps_partkey"}, cloudiq.Inner)
	matched = p.filter(matched, eq(cref("ps_supplycost"), cref("min_cost")))
	out := p.project(matched, []cloudiq.NamedExpr{
		{Name: "s_acctbal", Expr: cref("s_acctbal")},
		{Name: "s_name", Expr: cref("s_name")},
		{Name: "n_name", Expr: cref("n_name")},
		{Name: "p_partkey", Expr: cref("p_partkey")},
		{Name: "p_mfgr", Expr: cref("p_mfgr")},
		{Name: "s_address", Expr: cref("s_address")},
		{Name: "s_phone", Expr: cref("s_phone")},
		{Name: "s_comment", Expr: cref("s_comment")},
	})
	out = p.sort(out, []cloudiq.SortKey{
		{Col: "s_acctbal", Desc: true}, {Col: "n_name"}, {Col: "s_name"}, {Col: "p_partkey"},
	})
	return p.limit(out, 100)
}

// q3: shipping priority.
func q3(p *plan) *cloudiq.Batch {
	cut := dt(1995, 3, 15)
	cust := p.collect("customer", []string{"c_custkey", "c_mktsegment"},
		eq(cref("c_mktsegment"), sv("BUILDING")))
	ord := p.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		lt(cref("o_orderdate"), iv(cut)))
	co := p.join(src(cust), []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	li := p.scan("lineitem", []string{"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"},
		gt(cref("l_shipdate"), iv(cut)))
	j := p.join(src(co), []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	out := p.agg(src(j), []string{"l_orderkey", "o_orderdate", "o_shippriority"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"},
	})
	out = p.sort(out, []cloudiq.SortKey{{Col: "revenue", Desc: true}, {Col: "o_orderdate"}})
	return p.limit(out, 10)
}

// q4: order priority checking.
func q4(p *plan) *cloudiq.Batch {
	lo, hi := dt(1993, 7, 1), dt(1993, 10, 1)
	late := p.collect("lineitem", []string{"l_orderkey", "l_commitdate", "l_receiptdate"},
		lt(cref("l_commitdate"), cref("l_receiptdate")))
	ord := p.scan("orders", []string{"o_orderkey", "o_orderpriority", "o_orderdate"},
		and2(ge(cref("o_orderdate"), iv(lo)), lt(cref("o_orderdate"), iv(hi))))
	semi := p.join(src(late), []string{"l_orderkey"}, ord, []string{"o_orderkey"}, cloudiq.Semi)
	out := p.agg(src(semi), []string{"o_orderpriority"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "order_count"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "o_orderpriority"}})
}

// q5: local supplier volume.
func q5(p *plan) *cloudiq.Batch {
	nations := nationsOfRegion(p, "ASIA")
	cust := p.scan("customer", []string{"c_custkey", "c_nationkey"}, nil)
	nc := p.join(src(nations), []string{"n_nationkey"}, cust, []string{"c_nationkey"}, cloudiq.Inner)
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	ord := p.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		and2(ge(cref("o_orderdate"), iv(lo)), lt(cref("o_orderdate"), iv(hi))))
	nco := p.join(src(nc), []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	li := p.scan("lineitem", []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}, nil)
	j := p.join(src(nco), []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	// The supplier must be in the customer's nation.
	supp := p.collect("supplier", []string{"s_suppkey", "s_nationkey"}, nil)
	j = p.join(src(supp), []string{"s_suppkey", "s_nationkey"}, src(j), []string{"l_suppkey", "n_nationkey"}, cloudiq.Semi)
	out := p.agg(src(j), []string{"n_name"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "revenue", Desc: true}})
}

// q6: forecasting revenue change.
func q6(p *plan) *cloudiq.Batch {
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	li := p.scan("lineitem", []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"},
		and2(
			and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))),
			and2(
				and2(ge(cref("l_discount"), fv(0.05)), le(cref("l_discount"), fv(0.07))),
				lt(cref("l_quantity"), fv(24)),
			),
		))
	return p.agg(li, nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: mul(cref("l_extendedprice"), cref("l_discount")), As: "revenue"},
	})
}

// q7: volume shipping between FRANCE and GERMANY.
func q7(p *plan) *cloudiq.Batch {
	nat := p.collect("nation", []string{"n_nationkey", "n_name"},
		or2(eq(cref("n_name"), sv("FRANCE")), eq(cref("n_name"), sv("GERMANY"))))
	suppNat := p.project(nat, []cloudiq.NamedExpr{
		{Name: "sn_key", Expr: cref("n_nationkey")},
		{Name: "supp_nation", Expr: cref("n_name")},
	})
	custNat := p.project(nat, []cloudiq.NamedExpr{
		{Name: "cn_key", Expr: cref("n_nationkey")},
		{Name: "cust_nation", Expr: cref("n_name")},
	})
	supp := p.scan("supplier", []string{"s_suppkey", "s_nationkey"}, nil)
	s2 := p.join(src(suppNat), []string{"sn_key"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	cust := p.scan("customer", []string{"c_custkey", "c_nationkey"}, nil)
	c2 := p.join(src(custNat), []string{"cn_key"}, cust, []string{"c_nationkey"}, cloudiq.Inner)
	ord := p.scan("orders", []string{"o_orderkey", "o_custkey"}, nil)
	o2 := p.join(src(c2), []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	lo, hi := dt(1995, 1, 1), dt(1996, 12, 31)
	li := p.scan("lineitem", []string{"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		and2(ge(cref("l_shipdate"), iv(lo)), le(cref("l_shipdate"), iv(hi))))
	j := p.join(src(o2), []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	j = p.join(src(s2), []string{"s_suppkey"}, src(j), []string{"l_suppkey"}, cloudiq.Inner)
	j = p.filter(j, or2(
		and2(eq(cref("supp_nation"), sv("FRANCE")), eq(cref("cust_nation"), sv("GERMANY"))),
		and2(eq(cref("supp_nation"), sv("GERMANY")), eq(cref("cust_nation"), sv("FRANCE"))),
	))
	j = p.project(j, []cloudiq.NamedExpr{
		{Name: "supp_nation", Expr: cref("supp_nation")},
		{Name: "cust_nation", Expr: cref("cust_nation")},
		{Name: "l_year", Expr: cloudiq.YearE(cref("l_shipdate"))},
		{Name: "volume", Expr: revenue()},
	})
	out := p.agg(src(j), []string{"supp_nation", "cust_nation", "l_year"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("volume"), As: "revenue"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "supp_nation"}, {Col: "cust_nation"}, {Col: "l_year"}})
}

// q8: national market share.
func q8(p *plan) *cloudiq.Batch {
	nations := nationsOfRegion(p, "AMERICA")
	cust := p.scan("customer", []string{"c_custkey", "c_nationkey"}, nil)
	rc := p.join(src(nations), []string{"n_nationkey"}, cust, []string{"c_nationkey"}, cloudiq.Inner)
	lo, hi := dt(1995, 1, 1), dt(1996, 12, 31)
	ord := p.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		and2(ge(cref("o_orderdate"), iv(lo)), le(cref("o_orderdate"), iv(hi))))
	ro := p.join(src(rc), []string{"c_custkey"}, ord, []string{"o_custkey"}, cloudiq.Inner)
	li := p.scan("lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"}, nil)
	j := p.join(src(ro), []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	part := p.collect("part", []string{"p_partkey", "p_type"},
		eq(cref("p_type"), sv("ECONOMY ANODIZED STEEL")))
	j = p.join(src(part), []string{"p_partkey"}, src(j), []string{"l_partkey"}, cloudiq.Semi)
	// Supplier nation name for the BRAZIL share.
	supp := p.collect("supplier", []string{"s_suppkey", "s_nationkey"}, nil)
	j = p.join(src(supp), []string{"s_suppkey"}, src(j), []string{"l_suppkey"}, cloudiq.Inner)
	allNat := p.collect("nation", []string{"n_nationkey", "n_name"}, nil)
	supNat := p.project(allNat, []cloudiq.NamedExpr{
		{Name: "sup_nkey", Expr: cref("n_nationkey")},
		{Name: "sup_nation", Expr: cref("n_name")},
	})
	j = p.join(src(supNat), []string{"sup_nkey"}, src(j), []string{"s_nationkey"}, cloudiq.Inner)
	j = p.project(j, []cloudiq.NamedExpr{
		{Name: "o_year", Expr: cloudiq.YearE(cref("o_orderdate"))},
		{Name: "volume", Expr: revenue()},
		{Name: "brazil_volume", Expr: cloudiq.CaseE(eq(cref("sup_nation"), sv("BRAZIL")), revenue(), fv(0))},
	})
	sums := p.agg(src(j), []string{"o_year"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("brazil_volume"), As: "brazil"},
		{Func: cloudiq.Sum, Expr: cref("volume"), As: "total"},
	})
	out := p.project(sums, []cloudiq.NamedExpr{
		{Name: "o_year", Expr: cref("o_year")},
		{Name: "mkt_share", Expr: div(cref("brazil"), cref("total"))},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "o_year"}})
}

// q9: product type profit measure.
func q9(p *plan) *cloudiq.Batch {
	part := p.collect("part", []string{"p_partkey", "p_name"},
		like(cref("p_name"), "%green%"))
	li := p.scan("lineitem",
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount"},
		nil)
	j := p.join(src(part), []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Semi)
	ps := p.collect("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost"}, nil)
	j = p.join(src(ps), []string{"ps_partkey", "ps_suppkey"}, src(j), []string{"l_partkey", "l_suppkey"}, cloudiq.Inner)
	supp := p.collect("supplier", []string{"s_suppkey", "s_nationkey"}, nil)
	j = p.join(src(supp), []string{"s_suppkey"}, src(j), []string{"l_suppkey"}, cloudiq.Inner)
	nat := p.collect("nation", []string{"n_nationkey", "n_name"}, nil)
	j = p.join(src(nat), []string{"n_nationkey"}, src(j), []string{"s_nationkey"}, cloudiq.Inner)
	ord := p.collect("orders", []string{"o_orderkey", "o_orderdate"}, nil)
	j = p.join(src(ord), []string{"o_orderkey"}, src(j), []string{"l_orderkey"}, cloudiq.Inner)
	j = p.project(j, []cloudiq.NamedExpr{
		{Name: "nation", Expr: cref("n_name")},
		{Name: "o_year", Expr: cloudiq.YearE(cref("o_orderdate"))},
		{Name: "amount", Expr: sub(revenue(), mul(cref("ps_supplycost"), cref("l_quantity")))},
	})
	out := p.agg(src(j), []string{"nation", "o_year"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("amount"), As: "sum_profit"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "nation"}, {Col: "o_year", Desc: true}})
}

// q10: returned item reporting.
func q10(p *plan) *cloudiq.Batch {
	lo, hi := dt(1993, 10, 1), dt(1994, 1, 1)
	ord := p.collect("orders", []string{"o_orderkey", "o_custkey", "o_orderdate"},
		and2(ge(cref("o_orderdate"), iv(lo)), lt(cref("o_orderdate"), iv(hi))))
	li := p.scan("lineitem", []string{"l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"},
		eq(cref("l_returnflag"), sv("R")))
	j := p.join(src(ord), []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	cust := p.collect("customer",
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey", "c_address", "c_comment"},
		nil)
	j = p.join(src(cust), []string{"c_custkey"}, src(j), []string{"o_custkey"}, cloudiq.Inner)
	nat := p.collect("nation", []string{"n_nationkey", "n_name"}, nil)
	j = p.join(src(nat), []string{"n_nationkey"}, src(j), []string{"c_nationkey"}, cloudiq.Inner)
	out := p.agg(src(j),
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		[]cloudiq.Agg{{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"}})
	out = p.sort(out, []cloudiq.SortKey{{Col: "revenue", Desc: true}})
	return p.limit(out, 20)
}

// q11: important stock identification.
func q11(p *plan) *cloudiq.Batch {
	nat := p.collect("nation", []string{"n_nationkey", "n_name"},
		eq(cref("n_name"), sv("GERMANY")))
	supp := p.scan("supplier", []string{"s_suppkey", "s_nationkey"}, nil)
	gs := p.join(src(nat), []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	ps := p.scan("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"}, nil)
	j := p.join(src(gs), []string{"s_suppkey"}, ps, []string{"ps_suppkey"}, cloudiq.Inner)
	value := p.agg(src(j), []string{"ps_partkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: mul(cref("ps_supplycost"), cref("ps_availqty")), As: "value"},
	})
	total := p.agg(src(value), nil, []cloudiq.Agg{{Func: cloudiq.Sum, Expr: cref("value"), As: "grand"}})
	if p.err != nil {
		return nil
	}
	// HAVING value > grand_total * fraction; the spec scales the fraction
	// with 1/SF (estimated here from the supplier cardinality).
	sf := float64(p.c.tables["supplier"].Rows()) / supplierBase
	if sf <= 0 {
		sf = 1
	}
	threshold := total.Col("grand").F64[0] * 0.0001 / sf
	out := p.filter(value, gt(cref("value"), fv(threshold)))
	return p.sort(out, []cloudiq.SortKey{{Col: "value", Desc: true}})
}
