package tpch

import "cloudiq"

// q12: shipping modes and order priority.
func q12(p *plan) *cloudiq.Batch {
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	li := p.collect("lineitem",
		[]string{"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"},
		and2(
			and2(
				or2(eq(cref("l_shipmode"), sv("MAIL")), eq(cref("l_shipmode"), sv("SHIP"))),
				lt(cref("l_commitdate"), cref("l_receiptdate")),
			),
			and2(
				lt(cref("l_shipdate"), cref("l_commitdate")),
				and2(ge(cref("l_receiptdate"), iv(lo)), lt(cref("l_receiptdate"), iv(hi))),
			),
		))
	ord := p.collect("orders", []string{"o_orderkey", "o_orderpriority"}, nil)
	j := p.join(src(ord), []string{"o_orderkey"}, src(li), []string{"l_orderkey"}, cloudiq.Inner)
	highPri := or2(eq(cref("o_orderpriority"), sv("1-URGENT")), eq(cref("o_orderpriority"), sv("2-HIGH")))
	out := p.agg(src(j), []string{"l_shipmode"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(highPri, iv(1), iv(0)), As: "high_line_count"},
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(highPri, iv(0), iv(1)), As: "low_line_count"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "l_shipmode"}})
}

// q13: customer distribution.
func q13(p *plan) *cloudiq.Batch {
	ord := p.collect("orders", []string{"o_orderkey", "o_custkey", "o_comment"},
		cloudiq.NotLike(cref("o_comment"), "%special%requests%"))
	cust := p.scan("customer", []string{"c_custkey"}, nil)
	lo := p.join(src(ord), []string{"o_custkey"}, cust, []string{"c_custkey"}, cloudiq.LeftOuter)
	counts := p.agg(src(lo), []string{"c_custkey"}, []cloudiq.Agg{
		// Customers without orders got a zero-filled o_orderkey; real order
		// keys are >= 1.
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(gt(cref("o_orderkey"), iv(0)), iv(1), iv(0)), As: "c_count"},
	})
	out := p.agg(src(counts), []string{"c_count"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "custdist"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "custdist", Desc: true}, {Col: "c_count", Desc: true}})
}

// q14: promotion effect.
func q14(p *plan) *cloudiq.Batch {
	lo, hi := dt(1995, 9, 1), dt(1995, 10, 1)
	li := p.scan("lineitem", []string{"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"},
		and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))))
	part := p.collect("part", []string{"p_partkey", "p_type"}, nil)
	j := p.join(src(part), []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Inner)
	sums := p.agg(src(j), nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cloudiq.CaseE(like(cref("p_type"), "PROMO%"), revenue(), fv(0)), As: "promo"},
		{Func: cloudiq.Sum, Expr: revenue(), As: "total"},
	})
	return p.project(sums, []cloudiq.NamedExpr{
		{Name: "promo_revenue", Expr: div(mul(fv(100), cref("promo")), cref("total"))},
	})
}

// q15: top supplier.
func q15(p *plan) *cloudiq.Batch {
	lo, hi := dt(1996, 1, 1), dt(1996, 4, 1)
	li := p.scan("lineitem", []string{"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
		and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))))
	rev := p.agg(li, []string{"l_suppkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "total_revenue"},
	})
	maxRev := p.agg(src(rev), nil, []cloudiq.Agg{{Func: cloudiq.Max, Expr: cref("total_revenue"), As: "m"}})
	if p.err != nil || rev.Rows() == 0 {
		return rev
	}
	top := p.filter(rev, eq(cref("total_revenue"), fv(maxRev.Col("m").F64[0])))
	supp := p.collect("supplier", []string{"s_suppkey", "s_name", "s_address", "s_phone"}, nil)
	j := p.join(src(top), []string{"l_suppkey"}, src(supp), []string{"s_suppkey"}, cloudiq.Inner)
	out := p.project(j, []cloudiq.NamedExpr{
		{Name: "s_suppkey", Expr: cref("s_suppkey")},
		{Name: "s_name", Expr: cref("s_name")},
		{Name: "s_address", Expr: cref("s_address")},
		{Name: "s_phone", Expr: cref("s_phone")},
		{Name: "total_revenue", Expr: cref("total_revenue")},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "s_suppkey"}})
}

// q16: parts/supplier relationship.
func q16(p *plan) *cloudiq.Batch {
	sizes := []int64{49, 14, 23, 45, 19, 3, 36, 9}
	sizePred := eq(cref("p_size"), iv(sizes[0]))
	for _, s := range sizes[1:] {
		sizePred = or2(sizePred, eq(cref("p_size"), iv(s)))
	}
	part := p.collect("part", []string{"p_partkey", "p_brand", "p_type", "p_size"},
		and2(
			and2(ne(cref("p_brand"), sv("Brand#45")), cloudiq.NotLike(cref("p_type"), "MEDIUM POLISHED%")),
			sizePred,
		))
	ps := p.scan("partsupp", []string{"ps_partkey", "ps_suppkey"}, nil)
	j := p.join(src(part), []string{"p_partkey"}, ps, []string{"ps_partkey"}, cloudiq.Inner)
	bad := p.collect("supplier", []string{"s_suppkey", "s_comment"},
		like(cref("s_comment"), "%Customer%Complaints%"))
	j = p.join(src(bad), []string{"s_suppkey"}, src(j), []string{"ps_suppkey"}, cloudiq.Anti)
	out := p.agg(src(j), []string{"p_brand", "p_type", "p_size"}, []cloudiq.Agg{
		{Func: cloudiq.CountDistinct, Expr: cref("ps_suppkey"), As: "supplier_cnt"},
	})
	return p.sort(out, []cloudiq.SortKey{
		{Col: "supplier_cnt", Desc: true}, {Col: "p_brand"}, {Col: "p_type"}, {Col: "p_size"},
	})
}

// q17: small-quantity-order revenue.
func q17(p *plan) *cloudiq.Batch {
	part := p.collect("part", []string{"p_partkey", "p_brand", "p_container"},
		and2(
			eq(cref("p_brand"), sv("Brand#23")),
			eq(cref("p_container"), sv("MED BOX")),
		))
	li := p.scan("lineitem", []string{"l_partkey", "l_quantity", "l_extendedprice"}, nil)
	j := p.join(src(part), []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Inner)
	avgQ := p.agg(src(j), []string{"p_partkey"}, []cloudiq.Agg{
		{Func: cloudiq.Avg, Expr: cref("l_quantity"), As: "avg_qty"},
	})
	lim := p.project(avgQ, []cloudiq.NamedExpr{
		{Name: "ap_partkey", Expr: cref("p_partkey")},
		{Name: "qty_limit", Expr: mul(fv(0.2), cref("avg_qty"))},
	})
	j = p.join(src(lim), []string{"ap_partkey"}, src(j), []string{"l_partkey"}, cloudiq.Inner)
	j = p.filter(j, lt(cref("l_quantity"), cref("qty_limit")))
	sums := p.agg(src(j), nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_extendedprice"), As: "total"},
	})
	return p.project(sums, []cloudiq.NamedExpr{
		{Name: "avg_yearly", Expr: div(cref("total"), fv(7))},
	})
}

// q18: large volume customers.
func q18(p *plan) *cloudiq.Batch {
	li := p.scan("lineitem", []string{"l_orderkey", "l_quantity"}, nil)
	sums := p.agg(li, []string{"l_orderkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_quantity"), As: "sum_qty"},
	})
	big := p.filter(sums, gt(cref("sum_qty"), fv(300)))
	big = p.project(big, []cloudiq.NamedExpr{
		{Name: "bk_orderkey", Expr: cref("l_orderkey")},
		{Name: "sum_qty", Expr: cref("sum_qty")},
	})
	ord := p.scan("orders", []string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"}, nil)
	j := p.join(src(big), []string{"bk_orderkey"}, ord, []string{"o_orderkey"}, cloudiq.Inner)
	cust := p.collect("customer", []string{"c_custkey", "c_name"}, nil)
	j = p.join(src(cust), []string{"c_custkey"}, src(j), []string{"o_custkey"}, cloudiq.Inner)
	out := p.project(j, []cloudiq.NamedExpr{
		{Name: "c_name", Expr: cref("c_name")},
		{Name: "c_custkey", Expr: cref("c_custkey")},
		{Name: "o_orderkey", Expr: cref("o_orderkey")},
		{Name: "o_orderdate", Expr: cref("o_orderdate")},
		{Name: "o_totalprice", Expr: cref("o_totalprice")},
		{Name: "sum_qty", Expr: cref("sum_qty")},
	})
	out = p.sort(out, []cloudiq.SortKey{{Col: "o_totalprice", Desc: true}, {Col: "o_orderdate"}})
	return p.limit(out, 100)
}

// q19: discounted revenue (three OR'd brand/container/quantity branches).
func q19(p *plan) *cloudiq.Batch {
	li := p.scan("lineitem",
		[]string{"l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct"},
		and2(
			or2(eq(cref("l_shipmode"), sv("AIR")), eq(cref("l_shipmode"), sv("REG AIR"))),
			eq(cref("l_shipinstruct"), sv("DELIVER IN PERSON")),
		))
	part := p.collect("part", []string{"p_partkey", "p_brand", "p_container", "p_size"}, nil)
	j := p.join(src(part), []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Inner)
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
	j = p.filter(j, pred)
	return p.agg(src(j), nil, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: revenue(), As: "revenue"},
	})
}

// q20: potential part promotion.
func q20(p *plan) *cloudiq.Batch {
	part := p.collect("part", []string{"p_partkey", "p_name"},
		like(cref("p_name"), "forest%"))
	lo, hi := dt(1994, 1, 1), dt(1995, 1, 1)
	li := p.scan("lineitem", []string{"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"},
		and2(ge(cref("l_shipdate"), iv(lo)), lt(cref("l_shipdate"), iv(hi))))
	shipped := p.join(src(part), []string{"p_partkey"}, li, []string{"l_partkey"}, cloudiq.Semi)
	half := p.agg(src(shipped), []string{"l_partkey", "l_suppkey"}, []cloudiq.Agg{
		{Func: cloudiq.Sum, Expr: cref("l_quantity"), As: "shipped_qty"},
	})
	half = p.project(half, []cloudiq.NamedExpr{
		{Name: "h_partkey", Expr: cref("l_partkey")},
		{Name: "h_suppkey", Expr: cref("l_suppkey")},
		{Name: "half_qty", Expr: mul(fv(0.5), cref("shipped_qty"))},
	})
	ps := p.scan("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty"}, nil)
	j := p.join(src(half), []string{"h_partkey", "h_suppkey"}, ps, []string{"ps_partkey", "ps_suppkey"}, cloudiq.Inner)
	j = p.filter(j, gt(cref("ps_availqty"), cref("half_qty")))
	nat := p.collect("nation", []string{"n_nationkey", "n_name"},
		eq(cref("n_name"), sv("CANADA")))
	supp := p.scan("supplier", []string{"s_suppkey", "s_name", "s_address", "s_nationkey"}, nil)
	canada := p.join(src(nat), []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	out := p.join(src(j), []string{"ps_suppkey"}, src(canada), []string{"s_suppkey"}, cloudiq.Semi)
	out = p.project(out, []cloudiq.NamedExpr{
		{Name: "s_name", Expr: cref("s_name")},
		{Name: "s_address", Expr: cref("s_address")},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "s_name"}})
}

// q21: suppliers who kept orders waiting.
func q21(p *plan) *cloudiq.Batch {
	li := p.collect("lineitem", []string{"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"},
		nil)
	// Per order: distinct suppliers overall and distinct late suppliers.
	allSupp := p.agg(src(li), []string{"l_orderkey"}, []cloudiq.Agg{
		{Func: cloudiq.CountDistinct, Expr: cref("l_suppkey"), As: "nsupp"},
	})
	allSupp = p.project(allSupp, []cloudiq.NamedExpr{
		{Name: "as_orderkey", Expr: cref("l_orderkey")},
		{Name: "nsupp", Expr: cref("nsupp")},
	})
	late := p.filter(li, gt(cref("l_receiptdate"), cref("l_commitdate")))
	lateSupp := p.agg(src(late), []string{"l_orderkey"}, []cloudiq.Agg{
		{Func: cloudiq.CountDistinct, Expr: cref("l_suppkey"), As: "nlate"},
	})
	lateSupp = p.project(lateSupp, []cloudiq.NamedExpr{
		{Name: "ls_orderkey", Expr: cref("l_orderkey")},
		{Name: "nlate", Expr: cref("nlate")},
	})
	// Candidate rows: late lineitems of F-status orders.
	ord := p.collect("orders", []string{"o_orderkey", "o_orderstatus"},
		eq(cref("o_orderstatus"), sv("F")))
	j := p.join(src(ord), []string{"o_orderkey"}, src(late), []string{"l_orderkey"}, cloudiq.Inner)
	j = p.join(src(allSupp), []string{"as_orderkey"}, src(j), []string{"l_orderkey"}, cloudiq.Inner)
	j = p.join(src(lateSupp), []string{"ls_orderkey"}, src(j), []string{"l_orderkey"}, cloudiq.Inner)
	// EXISTS another supplier in the order; NOT EXISTS another late one.
	j = p.filter(j, and2(ge(cref("nsupp"), iv(2)), eq(cref("nlate"), iv(1))))
	nat := p.collect("nation", []string{"n_nationkey", "n_name"},
		eq(cref("n_name"), sv("SAUDI ARABIA")))
	supp := p.scan("supplier", []string{"s_suppkey", "s_name", "s_nationkey"}, nil)
	saudi := p.join(src(nat), []string{"n_nationkey"}, supp, []string{"s_nationkey"}, cloudiq.Inner)
	j = p.join(src(saudi), []string{"s_suppkey"}, src(j), []string{"l_suppkey"}, cloudiq.Inner)
	out := p.agg(src(j), []string{"s_name"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "numwait"},
	})
	out = p.sort(out, []cloudiq.SortKey{{Col: "numwait", Desc: true}, {Col: "s_name"}})
	return p.limit(out, 100)
}

// q22: global sales opportunity.
func q22(p *plan) *cloudiq.Batch {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	cust := p.collect("customer", []string{"c_custkey", "c_phone", "c_acctbal"}, nil)
	cust = p.project(cust, []cloudiq.NamedExpr{
		{Name: "c_custkey", Expr: cref("c_custkey")},
		{Name: "c_acctbal", Expr: cref("c_acctbal")},
		{Name: "cntrycode", Expr: cloudiq.Substr(cref("c_phone"), 1, 2)},
	})
	cust = p.filter(cust, cloudiq.InS(cref("cntrycode"), codes...))
	positive := p.filter(cust, gt(cref("c_acctbal"), fv(0)))
	avgBal := p.agg(src(positive), nil, []cloudiq.Agg{
		{Func: cloudiq.Avg, Expr: cref("c_acctbal"), As: "a"},
	})
	if p.err != nil {
		return nil
	}
	rich := p.filter(cust, gt(cref("c_acctbal"), fv(avgBal.Col("a").F64[0])))
	ord := p.collect("orders", []string{"o_custkey"}, nil)
	noOrders := p.join(src(ord), []string{"o_custkey"}, src(rich), []string{"c_custkey"}, cloudiq.Anti)
	out := p.agg(src(noOrders), []string{"cntrycode"}, []cloudiq.Agg{
		{Func: cloudiq.Count, As: "numcust"},
		{Func: cloudiq.Sum, Expr: cref("c_acctbal"), As: "totacctbal"},
	})
	return p.sort(out, []cloudiq.SortKey{{Col: "cntrycode"}})
}
