package tpch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"cloudiq"
)

// queryFingerprints pins every query's result on the shared testSF database:
// a plan rewrite must return the same columns, the same rows in the same
// order and the same values (floats to nine significant digits).
var queryFingerprints = [22]string{
	"ae2514a41cbf2cec", "86940b30e54cb8b4", "23ac9170cd4f2cd1", "f9a9862509d1bf75",
	"cd7f340c199ce8d5", "33a6a5fbac8c2f37", "897bccf8f94ccb89", "dad7a8fac32bcd14",
	"48569f547c5a34e3", "41b6443a330a380d", "adc57838c26646c8", "969d7e0d4e0cd9b1",
	"c63b5849e1a01dcd", "44c24def5731385f", "a9f182fae08cff6f", "20addf98bf31ccf7",
	"90d27378a2a13607", "f8098cf0ecccc3de", "e1fdb73ac7535d4a", "96d1ed4785b32394",
	"e1439dc31c65723a", "57124f83720f441c",
}

// TestQueryFingerprintsPinned runs Q1–Q22 and compares each result with its
// pinned fingerprint.
func TestQueryFingerprintsPinned(t *testing.T) {
	e := setup(t)
	for q := 1; q <= 22; q++ {
		out, err := e.conn.Query(ctxb(), q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if got := fingerprint(out); got != queryFingerprints[q-1] {
			t.Errorf("Q%d: fingerprint %s (%d rows), want %s", q, got, out.Rows(), queryFingerprints[q-1])
		}
	}
}

// fingerprint is a canonical column-wise hash of a result batch: column
// names and types, then every value in row order. Floats are hashed at nine
// significant digits so that a legal change in summation order does not read
// as a wrong result. It is the benchmark's result check, copied.
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
