package table

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudiq/internal/column"
	"cloudiq/internal/mt"
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

// refFloat and refDate are the strconv parses parseFloat and parseDate must
// agree with: every value bit for bit, every failure a failure.
func refFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func refDate(s string) (int64, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	y, err1 := strconv.Atoi(s[:4])
	m, err2 := strconv.Atoi(s[5:7])
	d, err3 := strconv.Atoi(s[8:])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, false
	}
	return daysFromCivil(y, m, d), true
}

// checkField holds parseFloat, parseDate and parseInt to the reference on
// one field.
func checkField(t *testing.T, f string) {
	t.Helper()
	n, err := parseInt(f)
	wantN, refErr := strconv.ParseInt(f, 10, 64)
	if n != wantN || fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("parseInt(%q) = %d, %v; strconv %d, %v", f, n, err, wantN, refErr)
	}
	got, err := parseFloat(f)
	want, refErr := refFloat(f)
	if (err != nil) != (refErr != nil) || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv %v (%#x), %v",
			f, got, math.Float64bits(got), err, want, math.Float64bits(want), refErr)
	}
	days, err := parseDate(f)
	wantDays, ok := refDate(f)
	if (err == nil) != ok || days != wantDays {
		t.Fatalf("parseDate(%q) = %d, %v; reference %d, ok %v", f, days, err, wantDays, ok)
	}
}

// TestParseFloatMatchesStrconv sweeps plain decimals of 1 to 17 digits, at
// every point position and of either sign, through parseFloat and
// strconv.ParseFloat: the fast path's values must be ParseFloat's, bit for
// bit, and the longer ones must reach ParseFloat itself.
func TestParseFloatMatchesStrconv(t *testing.T) {
	r := mt.New(7)
	for i := 0; i < 200000; i++ {
		nd := 1 + int(r.Uint64()%17)
		var sb strings.Builder
		if r.Uint64()%2 == 0 {
			sb.WriteByte('-')
		}
		point := int(r.Uint64() % uint64(nd+2)) // nd+1: no point
		for d := 0; d < nd; d++ {
			if d == point {
				sb.WriteByte('.')
			}
			sb.WriteByte(byte('0' + r.Uint64()%10))
		}
		if point == nd {
			sb.WriteByte('.')
		}
		checkField(t, sb.String())
	}
}

// parseEdgeFields are fields at the edges of the fast paths: signs, points at
// either end, forms only ParseFloat takes, 15 to 17 digits, and dates that
// only strconv.Atoi reads.
var parseEdgeFields = []string{
	"-0.00", ".5", "1.", "+1", "1e5", "-", ".", "-.", "",
	"123456789012.345", "1234567890123.456", "12345678901234.567",
	"999999999999999", "9999999999999999", "99999999999999999", "-0.000000000000001",
	"NaN", "Inf", "-Inf", "1_0", "0x1p-2", "1995-+1-02", "1995-01-02", "+995-01-02", "1995-13-01", "0000-00-00",
}

// parseIntEdgeFields are fields at the edges of parseInt's fast path: a sign
// it leaves to ParseInt, a negative zero, leading zeros, 18 and 19 digits
// either side of int64's limit, an underscore, and nothing at all.
var parseIntEdgeFields = []string{
	"+5", "-0", "007", "999999999999999999", "-999999999999999999",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "1_000", "",
}

// TestParseIntMatchesStrconv sweeps ints of 1 to 20 digits of either sign,
// and the edge fields, through parseInt and strconv.ParseInt: same value,
// same error.
func TestParseIntMatchesStrconv(t *testing.T) {
	for _, f := range parseIntEdgeFields {
		checkField(t, f)
	}
	r := mt.New(11)
	for i := 0; i < 100000; i++ {
		var sb strings.Builder
		if r.Uint64()%2 == 0 {
			sb.WriteByte('-')
		}
		for d := 1 + int(r.Uint64()%20); d > 0; d-- {
			sb.WriteByte(byte('0' + r.Uint64()%10))
		}
		checkField(t, sb.String())
	}
}

// FuzzParseRows parses arbitrary bytes as lineitem-shaped rows: an error or a
// batch, never a panic, the reference's error word for word, and every int,
// float and date field — of the rows, and the input taken as one field —
// read as strconv reads it.
func FuzzParseRows(f *testing.F) {
	schema, rows := lineitemRows(3)
	f.Add([]byte(rows))
	line := strings.SplitN(rows, "\n", 2)[0]
	for _, e := range parseEdgeFields {
		f.Add([]byte(e))
		fields := strings.Split(line, "|")
		fields[4], fields[10] = e, e
		f.Add([]byte(strings.Join(fields, "|")))
	}
	for _, e := range parseIntEdgeFields {
		f.Add([]byte(e))
		fields := strings.Split(line, "|")
		fields[0] = e
		f.Add([]byte(strings.Join(fields, "|")))
	}
	short := line[:strings.LastIndexByte(line[:len(line)-1], '|')+1]
	f.Add([]byte(short))                // a field short, with a trailing '|'
	f.Add([]byte(short[:len(short)-1])) // a field short
	f.Add([]byte(line + "x|"))          // a field over
	f.Fuzz(func(t *testing.T, data []byte) {
		in := string(data)
		checkField(t, in)
		b, err := ParseRows(schema, in)
		want, refErr := parseRowsRef(schema, in)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("ParseRows error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		for c, v := range b.Vecs {
			for r := range v.Len() {
				if !sameValue(v, want.Vecs[c], r) {
					t.Fatalf("row %d column %s differs from the reference", r, schema.Cols[c].Name)
				}
			}
		}
	})
}

func sameValue(a, b *column.Vector, r int) bool {
	switch a.Typ {
	case column.Int64:
		return a.I64[r] == b.I64[r]
	case column.Float64:
		return math.Float64bits(a.F64[r]) == math.Float64bits(b.F64[r])
	default:
		return a.Str[r] == b.Str[r]
	}
}

// parseRowsRef is ParseRows with every field read by strconv, each line
// split whole before its fields are read, and ParseRows's errors.
func parseRowsRef(schema Schema, data string) (*Batch, error) {
	b := NewBatch(schema)
	for i, line := range strings.Split(data, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		fields := strings.Split(strings.TrimSuffix(line, "|"), "|")
		if len(fields) != len(schema.Cols) {
			return nil, fmt.Errorf("table: line %d has %d fields, schema %d", lineNo, len(fields), len(schema.Cols))
		}
		for c, def := range schema.Cols {
			fieldErr := func(err error) error {
				return fmt.Errorf("table: line %d column %s: %w", lineNo, def.Name, err)
			}
			switch f := fields[c]; {
			case def.Date:
				days, ok := refDate(f)
				if !ok {
					return nil, fieldErr(fmt.Errorf("bad date %q", f))
				}
				b.Vecs[c].AppendInt(days)
			case def.Typ == column.Int64:
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fieldErr(err)
				}
				b.Vecs[c].AppendInt(v)
			case def.Typ == column.Float64:
				v, err := refFloat(f)
				if err != nil {
					return nil, fieldErr(err)
				}
				b.Vecs[c].AppendFloat(v)
			default:
				b.Vecs[c].AppendStr(f)
			}
		}
	}
	return b, nil
}

// BenchmarkTableAppend appends a parsed 4,000-row lineitem chunk to a fresh
// table of 512-row segments range-partitioned four ways on l_orderkey: the
// copy into the open segments and the seal (zone maps, encoding, the page
// handed to the compression queue) of each one that fills.
func BenchmarkTableAppend(b *testing.B) {
	schema, data := lineitemRows(4000)
	chunk, err := ParseRows(schema, data)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{SegRows: 512, PartitionCol: "l_orderkey", PartitionBounds: []int64{250, 500, 750}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl, err := Create("lineitem", newRig(b).object(b, 64), schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := tbl.Append(ctxb(), chunk); err != nil {
			b.Fatal(err)
		}
	}
}
