package table

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudiq/internal/column"
)

// TestParseDateMatchesDateToDays holds parseDate's integer arithmetic to
// column.DateToDays, time.Date's normalisation included, on every year,
// month and day 1–31 from 1900 to 2100.
func TestParseDateMatchesDateToDays(t *testing.T) {
	for y := 1900; y <= 2100; y++ {
		for m := 1; m <= 12; m++ {
			for d := 1; d <= 31; d++ {
				s := fmt.Sprintf("%04d-%02d-%02d", y, m, d)
				got, err := parseDate(s)
				if want := column.DateToDays(y, time.Month(m), d); err != nil || got != want {
					t.Fatalf("parseDate(%q) = %d, %v; want %d", s, got, err, want)
				}
			}
		}
	}
	// A day past the month's end carries into the next month.
	if got, _ := parseDate("1995-02-30"); got != column.DateToDays(1995, 3, 2) {
		t.Errorf("1995-02-30 = %d, want 1995-03-02", got)
	}
}

// lineitemRows is n '|'-separated rows in lineitem's shape.
func lineitemRows(n int) (Schema, string) {
	schema := Schema{Cols: []ColumnDef{
		{Name: "l_orderkey", Typ: column.Int64}, {Name: "l_partkey", Typ: column.Int64},
		{Name: "l_suppkey", Typ: column.Int64}, {Name: "l_linenumber", Typ: column.Int64},
		{Name: "l_quantity", Typ: column.Float64}, {Name: "l_extendedprice", Typ: column.Float64},
		{Name: "l_discount", Typ: column.Float64}, {Name: "l_tax", Typ: column.Float64},
		{Name: "l_returnflag", Typ: column.String}, {Name: "l_linestatus", Typ: column.String},
		{Name: "l_shipdate", Typ: column.Int64, Date: true}, {Name: "l_commitdate", Typ: column.Int64, Date: true},
		{Name: "l_receiptdate", Typ: column.Int64, Date: true}, {Name: "l_shipinstruct", Typ: column.String},
		{Name: "l_shipmode", Typ: column.String}, {Name: "l_comment", Typ: column.String},
	}}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d|%d|%d|%d|%d.00|%d.%02d|0.0%d|0.0%d|N|O|1995-%02d-%02d|1995-%02d-%02d|1996-01-%02d|DELIVER IN PERSON|TRUCK|furiously ironic packages sleep %d|\n",
			i/4+1, i*7%2000, i%100, i%4+1, i%50+1, 1000+i*13, i%100, i%10, i%9,
			i%12+1, i%28+1, (i+1)%12+1, (i+3)%28+1, i%31+1, i)
	}
	return schema, sb.String()
}

var parseSink *Batch

// BenchmarkParseRows parses 1,000 lineitem-shaped rows: three dates, four
// floats, four ints and five strings per row.
func BenchmarkParseRows(b *testing.B) {
	schema, data := lineitemRows(1000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if parseSink, err = ParseRows(schema, data); err != nil {
			b.Fatal(err)
		}
	}
}
