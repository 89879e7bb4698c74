package tpch

import (
	"context"

	"cloudiq"
)

// q12: shipping modes and order priority.
func (c *Conn) q12(ctx context.Context) (*cloudiq.Batch, error) {
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	li, err := c.collect(ctx, "lineitem",
		[]string{"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"},
		cloudiq.ScanOptions{
			Filter: and2(
				and2(
					or2(eq(cref("l_shipmode"), sv("MAIL")), eq(cref("l_shipmode"), sv("SHIP"))),
					lt(cref("l_commitdate"), cref("l_receiptdate")),
				),
				and2(
					lt(cref("l_shipdate"), cref("l_commitdate")),
					and2(ge(cref("l_receiptdate"), iv(lo)), lt(cref("l_receiptdate"), iv(hi))),
				),
			),
		})
	if err != nil {
		return nil, err
	}
	ord, err := c.collect(ctx, "orders", []string{"o_orderkey", "o_orderpriority"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := join(ctx, ord, []string{"o_orderkey"}, li, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	highPri := or2(eq(cref("o_orderpriority"), sv("1-URGENT")), eq(cref("o_orderpriority"), sv("2-HIGH")))
	out, err := agg(ctx, j, []string{"l_shipmode"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(highPri, iv(1), iv(0)), As: "high_line_count"},
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(highPri, iv(0), iv(1)), As: "low_line_count"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "l_shipmode"}})
}

// q13: customer distribution.
func (c *Conn) q13(ctx context.Context) (*cloudiq.Batch, error) {
	ord, err := c.collect(ctx, "orders", []string{"o_orderkey", "o_custkey", "o_comment"},
		cloudiq.ScanOptions{Filter: cloudiq.NotLike(cref("o_comment"), "%special%requests%")})
	if err != nil {
		return nil, err
	}
	cust, err := c.scan("customer", []string{"c_custkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	lo, err := joinSrc(ctx, ord, []string{"o_custkey"}, cust, []string{"c_custkey"}, cloudiq.LeftOuter)
	if err != nil {
		return nil, err
	}
	counts, err := agg(ctx, lo, []string{"c_custkey"}, []cloudiq.Agg{
		// Customers without orders got a zero-filled o_orderkey; real order
		// keys are >= 1.
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(gt(cref("o_orderkey"), iv(0)), iv(1), iv(0)), As: "c_count"},
	})
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, counts, []string{"c_count"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "custdist"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "custdist", Desc: true}, {Col: "c_count", Desc: true}})
}

// q14: promotion effect.
func (c *Conn) q14(ctx context.Context) (*cloudiq.Batch, error) {
	lo, hi := dt(1995, 9, 1), dt(1995, 10, 1)
	li, err := c.scan("lineitem", []string{"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_type"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, part, []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	sums, err := agg(ctx, j, nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(like(cref("p_type"), "PROMO%"), revenue(), fv(0)), As: "promo"},
		{Func: cloudiq.Sum, Expr: revenue(), As: "total"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.Project(sums, []cloudiq.NamedExpr{
		{Name: "promo_revenue", Expr: div(mul(fv(100), cref("promo")), cref("total"))},
	})
}

// q15: top supplier.
func (c *Conn) q15(ctx context.Context) (*cloudiq.Batch, error) {
	lo, hi := dt(1996, 1, 1), dt(1996, 4, 1)
	li, err := c.scan("lineitem", []string{"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	rev, err := cloudiq.HashAgg(ctx, li, []string{"l_suppkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "total_revenue"},
	})
	if err != nil {
		return nil, err
	}
	maxRev, err := agg(ctx, rev, nil, []cloudiq.Agg{{Func: cloudiq.Max, Expr: cref("total_revenue"), As: "m"}})
	if err != nil {
		return nil, err
	}
	if rev.Rows() == 0 {
		return rev, nil
	}
	top, err := cloudiq.FilterBatch(rev, eq(cref("total_revenue"), fv(maxRev.Col("m").F64[0])))
	if err != nil {
		return nil, err
	}
	supp, err := c.collect(ctx, "supplier", []string{"s_suppkey", "s_name", "s_address", "s_phone"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := join(ctx, top, []string{"l_suppkey"}, supp, []string{"s_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	out, err := cloudiq.Project(j, []cloudiq.NamedExpr{
		{Name: "s_suppkey", Expr: cref("s_suppkey")},
		{Name: "s_name", Expr: cref("s_name")},
		{Name: "s_address", Expr: cref("s_address")},
		{Name: "s_phone", Expr: cref("s_phone")},
		{Name: "total_revenue", Expr: cref("total_revenue")},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "s_suppkey"}})
}

// q16: parts/supplier relationship.
func (c *Conn) q16(ctx context.Context) (*cloudiq.Batch, error) {
	sizes := []int64{49, 14, 23, 45, 19, 3, 36, 9}
	sizePred := eq(cref("p_size"), iv(sizes[0]))
	for _, s := range sizes[1:] {
		sizePred = or2(sizePred, eq(cref("p_size"), iv(s)))
	}
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_brand", "p_type", "p_size"},
		cloudiq.ScanOptions{Filter: and2(
			and2(ne(cref("p_brand"), sv("Brand#45")), cloudiq.NotLike(cref("p_type"), "MEDIUM POLISHED%")),
			sizePred,
		)})
	if err != nil {
		return nil, err
	}
	ps, err := c.scan("partsupp", []string{"ps_partkey", "ps_suppkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, part, []string{"p_partkey"}, ps, []string{"ps_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	bad, err := c.collect(ctx, "supplier", []string{"s_suppkey", "s_comment"},
		cloudiq.ScanOptions{Filter: like(cref("s_comment"), "%Customer%Complaints%")})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, bad, []string{"s_suppkey"}, j, []string{"ps_suppkey"}, cloudiq.Anti)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j, []string{"p_brand", "p_type", "p_size"}, []cloudiq.Agg{
		{Func: cloudiq.CountDistinct, Expr: cref("ps_suppkey"), As: "supplier_cnt"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{
		{Col: "supplier_cnt", Desc: true}, {Col: "p_brand"}, {Col: "p_type"}, {Col: "p_size"},
	})
}

// q17: small-quantity-order revenue.
func (c *Conn) q17(ctx context.Context) (*cloudiq.Batch, error) {
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_brand", "p_container"},
		cloudiq.ScanOptions{Filter: and2(
			eq(cref("p_brand"), sv("Brand#23")),
			eq(cref("p_container"), sv("MED BOX")),
		)})
	if err != nil {
		return nil, err
	}
	li, err := c.scan("lineitem", []string{"l_partkey", "l_quantity", "l_extendedprice"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, part, []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	avgQ, err := agg(ctx, j, []string{"p_partkey"}, []cloudiq.Agg{
		{Func: cloudiq.Avg, Expr: cref("l_quantity"), As: "avg_qty"},
	})
	if err != nil {
		return nil, err
	}
	lim, err := cloudiq.Project(avgQ, []cloudiq.NamedExpr{
		{Name: "ap_partkey", Expr: cref("p_partkey")},
		{Name: "qty_limit", Expr: mul(fv(0.2), cref("avg_qty"))},
	})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, lim, []string{"ap_partkey"}, j, []string{"l_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = cloudiq.FilterBatch(j, lt(cref("l_quantity"), cref("qty_limit")))
	if err != nil {
		return nil, err
	}
	sums, err := agg(ctx, j, nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_extendedprice"), As: "total"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.Project(sums, []cloudiq.NamedExpr{
		{Name: "avg_yearly", Expr: div(cref("total"), fv(7))},
	})
}

// q18: large volume customers.
func (c *Conn) q18(ctx context.Context) (*cloudiq.Batch, error) {
	li, err := c.scan("lineitem", []string{"l_orderkey", "l_quantity"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	sums, err := cloudiq.HashAgg(ctx, li, []string{"l_orderkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_quantity"), As: "sum_qty"},
	})
	if err != nil {
		return nil, err
	}
	big, err := cloudiq.FilterBatch(sums, gt(cref("sum_qty"), fv(300)))
	if err != nil {
		return nil, err
	}
	big, err = cloudiq.Project(big, []cloudiq.NamedExpr{
		{Name: "bk_orderkey", Expr: cref("l_orderkey")},
		{Name: "sum_qty", Expr: cref("sum_qty")},
	})
	if err != nil {
		return nil, err
	}
	ord, err := c.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, big, []string{"bk_orderkey"}, ord, []string{"o_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	cust, err := c.collect(ctx, "customer", []string{"c_custkey", "c_name"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, cust, []string{"c_custkey"}, j, []string{"o_custkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	out, err := cloudiq.Project(j, []cloudiq.NamedExpr{
		{Name: "c_name", Expr: cref("c_name")},
		{Name: "c_custkey", Expr: cref("c_custkey")},
		{Name: "o_orderkey", Expr: cref("o_orderkey")},
		{Name: "o_orderdate", Expr: cref("o_orderdate")},
		{Name: "o_totalprice", Expr: cref("o_totalprice")},
		{Name: "sum_qty", Expr: cref("sum_qty")},
	})
	if err != nil {
		return nil, err
	}
	out, err = cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "o_totalprice", Desc: true}, {Col: "o_orderdate"}})
	if err != nil {
		return nil, err
	}
	return cloudiq.Limit(out, 100), nil
}

// q19: discounted revenue (three OR'd brand/container/quantity branches).
func (c *Conn) q19(ctx context.Context) (*cloudiq.Batch, error) {
	li, err := c.scan("lineitem",
		[]string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct"},
		cloudiq.ScanOptions{Filter: and2(
			or2(eq(cref("l_shipmode"), sv("AIR")), eq(cref("l_shipmode"), sv("REG AIR"))),
			eq(cref("l_shipinstruct"), sv("DELIVER IN PERSON")),
		)})
	if err != nil {
		return nil, err
	}
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_brand", "p_container", "p_size"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, part, []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	containersIn := func(names ...string) cloudiq.Expr {
		pred := eq(cref("p_container"), sv(names[0]))
		for _, n := range names[1:] {
			pred = or2(pred, eq(cref("p_container"), sv(n)))
		}
		return pred
	}
	branch := func(brand string, containers cloudiq.Expr, qlo, qhi float64, sizeHi int64) cloudiq.Expr {
		return and2(
			and2(eq(cref("p_brand"), sv(brand)), containers),
			and2(
				and2(ge(cref("l_quantity"), fv(qlo)), le(cref("l_quantity"), fv(qhi))),
				and2(ge(cref("p_size"), iv(1)), le(cref("p_size"), iv(sizeHi))),
			),
		)
	}
	pred := or2(
		branch("Brand#12", containersIn("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 5),
		or2(
			branch("Brand#23", containersIn("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 10),
			branch("Brand#34", containersIn("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 15),
		),
	)
	j, err = cloudiq.FilterBatch(j, pred)
	if err != nil {
		return nil, err
	}
	return agg(ctx, j, nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"},
	})
}

// q20: potential part promotion.
func (c *Conn) q20(ctx context.Context) (*cloudiq.Batch, error) {
	part, err := c.collect(ctx, "part", []string{"p_partkey", "p_name"},
		cloudiq.ScanOptions{Filter: like(cref("p_name"), "forest%")})
	if err != nil {
		return nil, err
	}
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	li, err := c.scan("lineitem", []string{"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"},
		cloudiq.ScanOptions{
			Filter: and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))),
		})
	if err != nil {
		return nil, err
	}
	shipped, err := joinSrc(ctx, part, []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Semi)
	if err != nil {
		return nil, err
	}
	half, err := agg(ctx, shipped, []string{"l_partkey", "l_suppkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_quantity"), As: "shipped_qty"},
	})
	if err != nil {
		return nil, err
	}
	half, err = cloudiq.Project(half, []cloudiq.NamedExpr{
		{Name: "h_partkey", Expr: cref("l_partkey")},
		{Name: "h_suppkey", Expr: cref("l_suppkey")},
		{Name: "half_qty", Expr: mul(fv(0.5), cref("shipped_qty"))},
	})
	if err != nil {
		return nil, err
	}
	ps, err := c.scan("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	j, err := joinSrc(ctx, half, []string{"h_partkey", "h_suppkey"}, ps, []string{"ps_partkey", "ps_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = cloudiq.FilterBatch(j, gt(cref("ps_availqty"), cref("half_qty")))
	if err != nil {
		return nil, err
	}
	nat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"},
		cloudiq.ScanOptions{Filter: eq(cref("n_name"), sv("CANADA"))})
	if err != nil {
		return nil, err
	}
	supp, err := c.scan("supplier", []string{"s_suppkey", "s_name", "s_address", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	canada, err := joinSrc(ctx, nat, []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	out, err := join(ctx, j, []string{"ps_suppkey"}, canada, []string{"s_suppkey"}, cloudiq.Semi)
	if err != nil {
		return nil, err
	}
	out, err = cloudiq.Project(out, []cloudiq.NamedExpr{
		{Name: "s_name", Expr: cref("s_name")},
		{Name: "s_address", Expr: cref("s_address")},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "s_name"}})
}

// q21: suppliers who kept orders waiting.
func (c *Conn) q21(ctx context.Context) (*cloudiq.Batch, error) {
	li, err := c.collect(ctx, "lineitem", []string{"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"},
		cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	// Per order: distinct suppliers overall and distinct late suppliers.
	allSupp, err := agg(ctx, li, []string{"l_orderkey"}, []cloudiq.Agg{
		{Func: cloudiq.CountDistinct, Expr: cref("l_suppkey"), As: "nsupp"},
	})
	if err != nil {
		return nil, err
	}
	allSupp, err = cloudiq.Project(allSupp, []cloudiq.NamedExpr{
		{Name: "as_orderkey", Expr: cref("l_orderkey")},
		{Name: "nsupp", Expr: cref("nsupp")},
	})
	if err != nil {
		return nil, err
	}
	late, err := cloudiq.FilterBatch(li, gt(cref("l_receiptdate"), cref("l_commitdate")))
	if err != nil {
		return nil, err
	}
	lateSupp, err := agg(ctx, late, []string{"l_orderkey"}, []cloudiq.Agg{
		{Func: cloudiq.CountDistinct, Expr: cref("l_suppkey"), As: "nlate"},
	})
	if err != nil {
		return nil, err
	}
	lateSupp, err = cloudiq.Project(lateSupp, []cloudiq.NamedExpr{
		{Name: "ls_orderkey", Expr: cref("l_orderkey")},
		{Name: "nlate", Expr: cref("nlate")},
	})
	if err != nil {
		return nil, err
	}
	// Candidate rows: late lineitems of F-status orders.
	ord, err := c.collect(ctx, "orders", []string{"o_orderkey", "o_orderstatus"},
		cloudiq.ScanOptions{Filter: eq(cref("o_orderstatus"), sv("F"))})
	if err != nil {
		return nil, err
	}
	j, err := join(ctx, ord, []string{"o_orderkey"}, late, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, allSupp, []string{"as_orderkey"}, j, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, lateSupp, []string{"ls_orderkey"}, j, []string{"l_orderkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	// EXISTS another supplier in the order; NOT EXISTS another late one.
	j, err = cloudiq.FilterBatch(j, and2(ge(cref("nsupp"), iv(2)), eq(cref("nlate"), iv(1))))
	if err != nil {
		return nil, err
	}
	nat, err := c.collect(ctx, "nation", []string{"n_nationkey", "n_name"},
		cloudiq.ScanOptions{Filter: eq(cref("n_name"), sv("SAUDI ARABIA"))})
	if err != nil {
		return nil, err
	}
	supp, err := c.scan("supplier", []string{"s_suppkey", "s_name", "s_nationkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	saudi, err := joinSrc(ctx, nat, []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	j, err = join(ctx, saudi, []string{"s_suppkey"}, j, []string{"l_suppkey"}, cloudiq.Inner)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, j, []string{"s_name"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "numwait"},
	})
	if err != nil {
		return nil, err
	}
	out, err = cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "numwait", Desc: true}, {Col: "s_name"}})
	if err != nil {
		return nil, err
	}
	return cloudiq.Limit(out, 100), nil
}

// q22: global sales opportunity.
func (c *Conn) q22(ctx context.Context) (*cloudiq.Batch, error) {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	cust, err := c.collect(ctx, "customer", []string{"c_custkey", "c_phone", "c_acctbal"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	cust, err = cloudiq.Project(cust, []cloudiq.NamedExpr{
		{Name: "c_custkey", Expr: cref("c_custkey")},
		{Name: "c_acctbal", Expr: cref("c_acctbal")},
		{Name: "cntrycode", Expr: cloudiq.Substr(cref("c_phone"), 1, 2)},
	})
	if err != nil {
		return nil, err
	}
	cust, err = cloudiq.FilterBatch(cust, cloudiq.InS(cref("cntrycode"), codes...))
	if err != nil {
		return nil, err
	}
	positive, err := cloudiq.FilterBatch(cust, gt(cref("c_acctbal"), fv(0)))
	if err != nil {
		return nil, err
	}
	avgBal, err := agg(ctx, positive, nil, []cloudiq.Agg{
		{Func: cloudiq.Avg, Expr: cref("c_acctbal"), As: "a"},
	})
	if err != nil {
		return nil, err
	}
	rich, err := cloudiq.FilterBatch(cust, gt(cref("c_acctbal"), fv(avgBal.Col("a").F64[0])))
	if err != nil {
		return nil, err
	}
	ord, err := c.collect(ctx, "orders", []string{"o_custkey"}, cloudiq.ScanOptions{})
	if err != nil {
		return nil, err
	}
	noOrders, err := join(ctx, ord, []string{"o_custkey"}, rich, []string{"c_custkey"}, cloudiq.Anti)
	if err != nil {
		return nil, err
	}
	out, err := agg(ctx, noOrders, []string{"cntrycode"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "numcust"},
		{Func: cloudiq.Sum, Expr: cref("c_acctbal"), As: "totacctbal"},
	})
	if err != nil {
		return nil, err
	}
	return cloudiq.SortBatch(out, []cloudiq.SortKey{{Col: "cntrycode"}})
}
