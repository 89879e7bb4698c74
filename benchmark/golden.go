package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"

	"cloudiq"
)

// goldenJSON holds, per scale factor, the fingerprint of every query result
// and the Q6-shaped scan's value. It is written by `-update-golden` from a
// power_warm run and is only as independent as the engine's own reference
// tests (tpch/queries_ref_test.go check each plan against a row-at-a-time
// evaluator); what it adds is that results stay identical across passes,
// cache regimes, tracing and later commits.
//
//go:embed golden.json
var goldenJSON []byte

type goldenSet struct {
	Queries map[string]string `json:"queries"` // "q01" → fingerprint
	Q6Scan  float64           `json:"q6_scan"` // revenue of the Q6-shaped scan on the loaded table
}

func sfKey(sf float64) string { return strconv.FormatFloat(sf, 'g', -1, 64) }

func loadGolden(sf float64) (*goldenSet, error) {
	all := map[string]*goldenSet{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[sfKey(sf)]
	if !ok {
		return nil, fmt.Errorf("golden.json has no entry for SF %s (run with -update-golden)", sfKey(sf))
	}
	return g, nil
}

// writeGolden replaces the entry for sf in the golden file at path.
func writeGolden(path string, sf float64, g *goldenSet) error {
	all := map[string]*goldenSet{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[sfKey(sf)] = g
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func queryKey(q int) string { return fmt.Sprintf("q%02d", q) }

// fingerprint is a canonical column-wise hash of a result batch: column
// names and types, then every value in row order. Floats are hashed at nine
// significant digits so that a legal change in summation order (a different
// batch size, a parallel aggregate) does not read as a wrong result.
func fingerprint(b *cloudiq.Batch) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(b.Vecs)))
	for i, v := range b.Vecs {
		h.Write([]byte(b.Schema.Cols[i].Name))
		put(uint64(v.Typ))
		put(uint64(v.Len()))
		switch v.Typ {
		case cloudiq.Int64:
			for _, x := range v.I64 {
				put(uint64(x))
			}
		case cloudiq.Float64:
			for _, x := range v.F64 {
				h.Write(strconv.AppendFloat(buf[:0], x, 'e', 8, 64))
				h.Write([]byte{0})
			}
		default:
			for _, s := range v.Str {
				put(uint64(len(s)))
				h.Write([]byte(s))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
