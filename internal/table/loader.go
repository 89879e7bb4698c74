package table

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"cloudiq/internal/column"
	"cloudiq/internal/objstore"
	"cloudiq/internal/pageio"
)

// loadReadAttempts bounds the retry-until-found window for freshly uploaded
// input files (§3: a new key may be briefly invisible under eventual
// consistency).
const loadReadAttempts = 10

// LoadStats reports what a Load ingested.
type LoadStats struct {
	Files int
	Rows  int64
	Bytes int64
}

// Load ingests every input file under prefix in store into t. Files are
// fetched in windows of up to parallel keys through a pageio ReadBatch
// (overlapping object-store latency, which is where the load path's bandwidth
// saturation comes from — Figure 8), parsed concurrently, and appended in
// file order so ingestion is deterministic. Input files are '|'-separated,
// one row per line, TPC-H dbgen style; a trailing '|' is tolerated. Dates
// (yyyy-mm-dd) are parsed for columns marked Date.
func Load(ctx context.Context, t *Table, store objstore.Store, prefix string, parallel int) (LoadStats, error) {
	var stats LoadStats
	// An empty listing right after the input files were uploaded is almost
	// certainly eventual consistency; observe a few more times.
	var files []string
	for attempt := 0; attempt < loadReadAttempts; attempt++ {
		var err error
		files, err = store.List(ctx, prefix)
		if err != nil {
			return stats, fmt.Errorf("load %s: list %q: %w", t.Name(), prefix, err)
		}
		if len(files) > 0 {
			break
		}
	}
	if parallel <= 0 {
		parallel = 4
	}
	pool := pageio.NewPool(parallel)
	pipe := pageio.Chain(
		pageio.NewStore(store),
		pageio.Retry(pageio.Policy{
			ReadAttempts: loadReadAttempts,
			Pool:         pool,
		}),
	)
	for start := 0; start < len(files); start += parallel {
		window := files[start:min(start+parallel, len(files))]
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		refs := make([]pageio.Ref, len(window))
		for i, f := range window {
			refs[i] = pageio.Ref{Key: f}
		}
		blobs, batchErr := pipe.ReadBatch(ctx, refs)
		fetchErrs := pageio.ItemErrors(batchErr, len(window))

		batches := make([]*Batch, len(window))
		parseErrs := pool.Do(ctx, len(window), func(i int) (err error) {
			if fetchErrs[i] == nil {
				batches[i], err = ParseRows(t.Schema(), string(blobs[i]))
			}
			return err
		})

		for i, f := range window {
			if fetchErrs[i] != nil {
				return stats, fmt.Errorf("load %s: fetch %s: %w", t.Name(), f, fetchErrs[i])
			}
			if parseErrs[i] != nil {
				return stats, parseErrs[i]
			}
			if err := t.Append(ctx, batches[i]); err != nil {
				return stats, err
			}
			stats.Files++
			stats.Rows += int64(batches[i].Rows())
			stats.Bytes += int64(len(blobs[i]))
		}
	}
	return stats, nil
}

// ParseRows parses '|'-separated lines into a batch of the given schema.
// Blank lines are skipped and one trailing '|' per line is tolerated; line
// numbers in errors count every line, blank ones included. Lines and fields
// are walked in place: string columns keep substrings of data.
func ParseRows(schema Schema, data string) (*Batch, error) {
	b := NewBatch(schema)
	// One row per newline plus an unterminated last line: an upper bound
	// (blank lines count), so no vector regrows while parsing.
	maxRows := strings.Count(data, "\n") + 1
	for _, v := range b.Vecs {
		v.Grow(maxRows)
	}
	for lineNo := 1; data != ""; lineNo++ {
		line := data
		if nl := strings.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = ""
		}
		if line == "" {
			continue
		}
		line = strings.TrimSuffix(line, "|")
		if n := strings.Count(line, "|") + 1; n != len(schema.Cols) {
			return nil, fmt.Errorf("table: line %d has %d fields, schema %d", lineNo, n, len(schema.Cols))
		}
		for c, def := range schema.Cols {
			f := line
			if bar := strings.IndexByte(line, '|'); bar >= 0 {
				f, line = line[:bar], line[bar+1:]
			}
			switch {
			case def.Date:
				days, err := parseDate(f)
				if err != nil {
					return nil, fmt.Errorf("table: line %d column %s: %w", lineNo, def.Name, err)
				}
				b.Vecs[c].AppendInt(days)
			case def.Typ == column.Int64:
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("table: line %d column %s: %w", lineNo, def.Name, err)
				}
				b.Vecs[c].AppendInt(v)
			case def.Typ == column.Float64:
				v, err := parseFloat(f)
				if err != nil {
					return nil, fmt.Errorf("table: line %d column %s: %w", lineNo, def.Name, err)
				}
				b.Vecs[c].AppendFloat(v)
			default:
				b.Vecs[c].AppendStr(f)
			}
		}
	}
	return b, nil
}

// pow10 holds the powers of ten a plain decimal's scale can take.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat is strconv.ParseFloat with a fast path for a plain decimal: an
// optional '-', then at most 15 digits with at most one '.'. Such a value is
// m / 10^k with m < 10^15 and k ≤ 15, both exact in a float64, so one IEEE
// division rounds it correctly — the exact case ParseFloat itself takes
// first — and "-0.00" is −0, as ParseFloat makes it. Anything else, an error
// included, is ParseFloat's.
func parseFloat(s string) (float64, error) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		i = 1
	}
	var m uint64
	nd, scale := 0, -1 // digits read; digits after the '.', -1 before one
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9' && nd < 15:
			m = m*10 + uint64(c-'0')
			nd++
			if scale >= 0 {
				scale++
			}
		case c == '.' && scale < 0:
			scale = 0
		default:
			return strconv.ParseFloat(s, 64)
		}
	}
	if nd == 0 {
		return strconv.ParseFloat(s, 64)
	}
	f := float64(m) / pow10[max(scale, 0)]
	if s[0] == '-' {
		f = -f
	}
	return f, nil
}

// parseDate reads yyyy-mm-dd. Digits are read directly; a part that is not
// all digits goes through strconv.Atoi, which also takes a sign
// ("1995-+1-02" is January).
func parseDate(s string) (int64, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("bad date %q", s)
	}
	y, ok1 := digits(s[:4])
	m, ok2 := digits(s[5:7])
	d, ok3 := digits(s[8:])
	if !ok1 || !ok2 || !ok3 {
		var err1, err2, err3 error
		y, err1 = strconv.Atoi(s[:4])
		m, err2 = strconv.Atoi(s[5:7])
		d, err3 = strconv.Atoi(s[8:])
		if err1 != nil || err2 != nil || err3 != nil {
			return 0, fmt.Errorf("bad date %q", s)
		}
	}
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("bad date %q", s)
	}
	return daysFromCivil(y, m, d), nil
}

// digits reads s when it is all decimal digits.
func digits(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// daysFromCivil is column.DateToDays in integer arithmetic (the proleptic
// Gregorian days-from-civil count), without building a time.Time per value.
// A day past its month's end carries into the next month as time.Date
// normalises it (1995-02-30 is 1995-03-02): the count is linear in d. Unlike
// DateToDays, whose time.Duration saturates about 292 years from 1970, it is
// exact for every year.
func daysFromCivil(y, m, d int) int64 {
	if m <= 2 {
		y-- // the year starts in March, so February's leap day ends it
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400                             // [0, 399]
	doy := (153*((m+9)%12)+2)/5 + d - 1            // day of the March-based year
	doe := yoe*365 + yoe/4 - yoe/100 + doy         // day of the 400-year era
	return int64(era)*146097 + int64(doe) - 719468 // 1970-01-01 is day 0
}
