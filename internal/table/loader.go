package table

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

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
	pipe := pageio.Chain(
		pageio.NewStore(store, nil),
		pageio.Retry(pageio.Policy{
			ReadAttempts: loadReadAttempts,
			Pool:         pageio.NewPool(parallel),
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
		parseErrs := make([]error, len(window))
		var wg sync.WaitGroup
		for i := range window {
			if fetchErrs[i] != nil {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				batches[i], parseErrs[i] = ParseRows(t.Schema(), string(blobs[i]))
			}(i)
		}
		wg.Wait()

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
				v, err := strconv.ParseFloat(f, 64)
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

func parseDate(s string) (int64, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("bad date %q", s)
	}
	y, err1 := strconv.Atoi(s[:4])
	m, err2 := strconv.Atoi(s[5:7])
	d, err3 := strconv.Atoi(s[8:])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("bad date %q", s)
	}
	return column.DateToDays(y, time.Month(m), d), nil
}
