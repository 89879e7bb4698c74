package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cloudiq"
	"cloudiq/internal/blockdev"
	"cloudiq/internal/buffer"
	"cloudiq/internal/column"
	"cloudiq/internal/pageio"
	"cloudiq/internal/wal"
	"cloudiq/tpch"
)

// Kernel probes: CPU-only layers with no injectable boundary to wrap
// (column, exec operators, the pageio chain, wal) get direct timed calls into
// their exported functions, on fixed inputs taken from the loaded tables.

// probeBudget is the wall time spent on each probe.
const probeBudget = 80 * time.Millisecond

type prober struct {
	ctx      context.Context
	budget   time.Duration
	out      map[string]float64
	problems []string
}

// measure calls fn, which performs n operations, for about the budget (at
// least five times) and returns the median ns per operation.
func (p *prober) measure(n int, fn func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < p.budget; {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

func (p *prober) failf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// runProbes measures every probe metric against e's loaded tables.
func runProbes(ctx context.Context, e *env, ds *dataset, budget time.Duration) (map[string]float64, []string) {
	p := &prober{ctx: ctx, budget: budget, out: make(map[string]float64)}
	tx := e.db.Begin()
	defer tx.Rollback(ctx) // read-only: nothing to undo, nothing to report
	li, err := tx.Table(ctx, dbspace, "lineitem")
	if err != nil {
		p.failf("probes: %v", err)
		return p.out, p.problems
	}
	ord, err := tx.Table(ctx, dbspace, "orders")
	if err != nil {
		p.failf("probes: %v", err)
		return p.out, p.problems
	}
	p.exec(li, ord)
	p.column(li)
	p.parse(ds)
	p.pageioChain()
	p.walAppend()
	return p.out, p.problems
}

func (p *prober) collect(t *cloudiq.Table, cols []string) *cloudiq.Batch {
	src, err := cloudiq.Scan(t, cols, cloudiq.ScanOptions{Pushdown: cloudiq.PushdownOff})
	if err != nil {
		p.failf("probe scan %s: %v", t.Name(), err)
		return nil
	}
	b, err := cloudiq.Collect(p.ctx, src)
	if err != nil {
		p.failf("probe scan %s: %v", t.Name(), err)
		return nil
	}
	return b
}

func (p *prober) exec(li, ord *cloudiq.Table) {
	rows := int(li.Rows())
	p.out["exec.scan_ns_per_row"] = p.measure(rows, func() {
		src, err := cloudiq.Scan(li, q6Cols, cloudiq.ScanOptions{Filter: q6Filter(), Pushdown: cloudiq.PushdownOff})
		if err == nil {
			_, err = cloudiq.Collect(p.ctx, src)
		}
		if err != nil {
			p.failf("scan probe: %v", err)
		}
	})

	b := p.collect(li, []string{"l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
		"l_returnflag", "l_linestatus", "l_shipdate"})
	orders := p.collect(ord, []string{"o_orderkey", "o_orderdate"})
	if b == nil || orders == nil {
		return
	}
	n := b.Rows()
	check := func(name string, err error) {
		if err != nil {
			p.failf("%s probe: %v", name, err)
		}
	}
	p.out["exec.filter_ns_per_row"] = p.measure(n, func() {
		_, err := cloudiq.FilterBatch(b, q6Filter())
		check("filter", err)
	})
	discounted := cloudiq.MulE(cloudiq.Col("l_extendedprice"), cloudiq.SubE(cloudiq.ConstF(1), cloudiq.Col("l_discount")))
	p.out["exec.project_ns_per_row"] = p.measure(n, func() {
		_, err := cloudiq.Project(b, []cloudiq.NamedExpr{{Name: "disc_price", Expr: discounted}})
		check("project", err)
	})
	p.out["exec.hashagg_ns_per_row"] = p.measure(n, func() {
		_, err := cloudiq.HashAgg(p.ctx, cloudiq.SliceSource(b), []string{"l_returnflag", "l_linestatus"}, []cloudiq.Agg{
			{Func: cloudiq.Sum, Expr: cloudiq.Col("l_quantity"), As: "sum_qty"},
			{Func: cloudiq.Sum, Expr: discounted, As: "sum_disc_price"},
			{Func: cloudiq.Avg, Expr: cloudiq.Col("l_discount"), As: "avg_disc"},
			{Func: cloudiq.Count, As: "n"},
		})
		check("hashagg", err)
	})
	p.out["exec.hashjoin_ns_per_row"] = p.measure(n, func() {
		out, err := cloudiq.HashJoin(p.ctx, cloudiq.SliceSource(orders), []string{"o_orderkey"},
			cloudiq.SliceSource(b), []string{"l_orderkey"}, cloudiq.Inner)
		check("hashjoin", err)
		if err == nil && out.Rows() == 0 {
			p.failf("hashjoin probe: no lineitem row found its order")
		}
	})
	p.out["exec.sort_ns_per_row"] = p.measure(n, func() {
		_, err := cloudiq.SortBatch(b, []cloudiq.SortKey{{Col: "l_extendedprice"}})
		check("sort", err)
	})
}

// column probes run at the engine's real segment size, so the per-call
// overhead a segment pays is in the per-value figure.
func (p *prober) column(li *cloudiq.Table) {
	var all []string
	for _, c := range li.Schema().Cols {
		all = append(all, c.Name)
	}
	src, err := cloudiq.Scan(li, all, cloudiq.ScanOptions{Pushdown: cloudiq.PushdownOff})
	if err != nil {
		p.failf("column probe: %v", err)
		return
	}
	seg, err := src.Next(p.ctx) // the first segment, all 16 columns
	if err != nil || seg == nil || seg.Rows() == 0 {
		p.failf("column probe: no first segment: %v", err)
		return
	}
	n := seg.Rows()

	wide := column.NewVector(column.Int64) // full-width values: nothing to pack
	runs := column.NewVector(column.Int64) // long runs
	for i, k := range seg.Col("l_orderkey").I64 {
		x := k * 0x1e3779b97f4a7c15
		if i%2 == 1 {
			x = -x
		}
		wide.AppendInt(x)
		runs.AppendInt(int64(i / 64))
	}
	decode := []struct {
		metric string
		vec    *column.Vector
		want   column.Encoding
	}{
		{"plain_int", wide, column.EncPlainInt},
		{"bitpacked_int", seg.Col("l_partkey"), column.EncBitPackedInt},
		{"rle_int", runs, column.EncRLEInt},
		{"plain_float", seg.Col("l_extendedprice"), column.EncPlainFloat},
		{"plain_string", seg.Col("l_comment"), column.EncPlainString},
		{"dict_string", seg.Col("l_shipmode"), column.EncDictString},
	}
	for _, d := range decode {
		enc := column.EncodeSegment(d.vec)
		if got := column.Encoding(enc[1]); got != d.want {
			p.failf("column probe %s: encoder chose %v", d.metric, got)
			continue
		}
		p.out["column.decode_ns_per_value."+d.metric] = p.measure(n, func() {
			if _, err := column.DecodeSegment(enc); err != nil {
				p.failf("column probe %s: %v", d.metric, err)
			}
		})
	}

	values, encoded := n*len(seg.Vecs), 0
	for _, v := range seg.Vecs {
		encoded += len(column.EncodeSegment(v))
	}
	p.out["column.encoded_bytes_per_value"] = float64(encoded) / float64(values)
	p.out["column.encode_ns_per_value"] = p.measure(values, func() {
		for _, v := range seg.Vecs {
			column.EncodeSegment(v)
		}
	})

	// The widest page of the segment, as the buffer manager stores it.
	page := column.EncodeSegment(seg.Col("l_comment"))
	codec := buffer.FlateCodec{}
	stored := codec.Compress(page)
	p.out["buffer.compress_ns_per_page"] = p.measure(1, func() { codec.Compress(page) })
	p.out["buffer.decompress_ns_per_page"] = p.measure(1, func() {
		if _, err := codec.Decompress(stored); err != nil {
			p.failf("decompress probe: %v", err)
		}
	})
}

// parseProbeRows bounds the .tbl text handed to ParseRows.
const parseProbeRows = 2000

func (p *prober) parse(ds *dataset) {
	//lint:ignore pageioonly reads benchmark input text for a parser probe, not an engine page
	data, err := ds.input.Get(p.ctx, inputPrefix+"lineitem/chunk000.tbl")
	if err != nil {
		p.failf("parse probe: %v", err)
		return
	}
	lines := strings.SplitAfterN(string(data), "\n", parseProbeRows+1)
	if len(lines) > parseProbeRows {
		lines = lines[:parseProbeRows]
	}
	text := strings.Join(lines, "")
	schema := tpch.Schemas()["lineitem"]
	p.out["table.parse_ns_per_row"] = p.measure(len(lines), func() {
		if _, err := cloudiq.ParseRows(schema, text); err != nil {
			p.failf("parse probe: %v", err)
		}
	})
}

// memHandler is the bare terminal the pageio chain is measured against.
type memHandler struct{ page []byte }

func (h memHandler) ReadPage(context.Context, pageio.Ref) ([]byte, error) { return h.page, nil }
func (h memHandler) WritePage(context.Context, pageio.WriteReq) error     { return nil }
func (h memHandler) Delete(context.Context, pageio.Ref) error             { return nil }
func (h memHandler) WriteBatch(context.Context, []pageio.WriteReq) error  { return nil }
func (h memHandler) ReadBatch(_ context.Context, refs []pageio.Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	for i := range out {
		out[i] = h.page
	}
	return out, nil
}

func (p *prober) pageioChain() {
	const calls = 4096
	bare := memHandler{page: make([]byte, 4096)}
	reg := pageio.NewRegistry()
	chain := pageio.Chain(bare,
		pageio.Meter(reg, "outer"),
		pageio.Retry(pageio.Policy{ReadAttempts: 10, WriteAttempts: 3}),
		pageio.Coalesce(0),
		pageio.Meter(reg, "inner"))
	ref := pageio.Ref{Key: "k"}
	loop := func(h pageio.Handler) func() {
		return func() {
			for i := 0; i < calls; i++ {
				if _, err := h.ReadPage(p.ctx, ref); err != nil {
					p.failf("pageio probe: %v", err)
					return
				}
			}
		}
	}
	p.out["pageio.chain_ns_per_page"] = max(p.measure(calls, loop(chain))-p.measure(calls, loop(bare)), 0)
}

func (p *prober) walAppend() {
	// The log needs a growable device, and MemDevice grows by an exact-fit
	// reallocation, so an append costs in proportion to the log's size; the
	// probe keeps the log at 1 MiB, about a tenth of trickle_mixed's.
	const records = 256
	payload := make([]byte, 4096)
	p.out["wal.append_ns_per_record"] = p.measure(records, func() {
		log, err := wal.Open(p.ctx, blockdev.NewMem(blockdev.Config{Growable: true}))
		if err != nil {
			p.failf("wal probe: %v", err)
			return
		}
		for i := 0; i < records; i++ {
			if _, err := log.Append(p.ctx, wal.RecCommit, payload); err != nil {
				p.failf("wal probe: %v", err)
				return
			}
		}
	})
}
