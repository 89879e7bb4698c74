package column

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"cloudiq/internal/mt"
)

func genVector(r *mt.Source, kind int) *Vector {
	switch kind % 3 {
	case 0:
		return genInts(r)
	case 1:
		return genFloats(r)
	default:
		return genStrings(r)
	}
}

// sameVector compares through the encoded images, so floats compare by bits.
func sameVector(a, b *Vector) bool {
	return a.Typ == b.Typ && bytes.Equal(EncodeSegment(a), EncodeSegment(b))
}

// TestBulkHelpersEqualAppendLoop: each whole-slice helper gives exactly what
// the Append-per-value loop it replaced gives, onto an empty and a non-empty
// destination.
func TestBulkHelpersEqualAppendLoop(t *testing.T) {
	r := mt.New(*propSeed + 1)
	for i := 0; i < propIters; i++ {
		src, head := genVector(r, i), genVector(r, i)
		n := src.Len()
		rows32 := make([]int32, r.Uint64()%64)
		var rows []int32
		for j := range rows32 {
			if n == 0 || r.Uint64()%8 == 0 {
				rows32[j] = -1
				continue
			}
			rows32[j] = int32(r.Uint64() % uint64(n))
			rows = append(rows, rows32[j])
		}

		want, got := head.Slice(0, head.Len()/2), NewVector(src.Typ)
		want = want.Gather(seq(want.Len())) // a copy the appends below may grow
		got.AppendVector(want)
		got.Grow(n)
		for j := 0; j < n; j++ {
			want.Append(src, j)
		}
		got.AppendVector(src)
		if !sameVector(got, want) {
			t.Fatalf("iter %d (seed %d): AppendVector of %d %s values differs", i, *propSeed, n, src.Typ)
		}

		zero := &Vector{Typ: src.Typ, I64: []int64{0}, F64: []float64{0}, Str: []string{""}}
		for _, row := range rows32 {
			if row < 0 {
				want.Append(zero, 0)
			} else {
				want.Append(src, int(row))
			}
		}
		got.AppendGather(src, rows32)
		if !sameVector(got, want) {
			t.Fatalf("iter %d (seed %d): AppendGather %v of %s differs", i, *propSeed, rows32, src.Typ)
		}

		want = NewVector(src.Typ)
		for _, row := range rows {
			want.Append(src, int(row))
		}
		if g := src.Gather(rows); !sameVector(g, want) || g.Len() != len(rows) {
			t.Fatalf("iter %d (seed %d): Gather %v of %s differs", i, *propSeed, rows, src.Typ)
		}
	}
}

func seq(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// refKeyOf is the reference key of one row: each column printed, floats as
// their bit pattern, strings quoted so that no two differing rows print alike.
func refKeyOf(keys []*Vector, r int) string {
	s := ""
	for _, k := range keys {
		switch k.Typ {
		case Int64:
			s += fmt.Sprintf("%d|", k.I64[r])
		case Float64:
			s += fmt.Sprintf("%x|", math.Float64bits(k.F64[r]))
		default:
			s += fmt.Sprintf("%q|", k.Str[r])
		}
	}
	return s
}

// TestHashTableMatchesMap drives both kinds of table with random key shapes,
// several batches each, against a Go map keyed by the printed row: Insert's
// ids are dense in first-seen order and its key columns hold each key once;
// IndexRows names the first row holding each key; Find agrees with both and
// misses everything else.
func TestHashTableMatchesMap(t *testing.T) {
	r := mt.New(*propSeed + 2)
	// Few distinct values per column, the float ones chosen to collide
	// unless compared by bits, the strings to collide if concatenated.
	ints := []int64{0, 1, -1, 7, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -1.5}
	strs := []string{"", "a", "a\x00", "\x00b", "b", "ab", "a-rather-longer-string", "a-rather-longer-strinG"}
	genKeys := func(shape []Type, n int) []*Vector {
		keys := make([]*Vector, len(shape))
		for c, typ := range shape {
			keys[c] = NewVector(typ)
			for i := 0; i < n; i++ {
				switch typ {
				case Int64:
					keys[c].AppendInt(ints[r.Uint64()%uint64(len(ints))] + int64(r.Uint64()%3)*1000)
				case Float64:
					keys[c].AppendFloat(floats[r.Uint64()%uint64(len(floats))])
				default:
					keys[c].AppendStr(strs[r.Uint64()%uint64(len(strs))])
				}
			}
		}
		return keys
	}
	shapes := [][]Type{{Int64}, {Float64}, {String}, {String, String}, {Int64, String, Float64}, {}}
	for i := 0; i < propIters; i++ {
		shape := shapes[i%len(shapes)]

		var owned HashTable
		seen := map[string]int32{}
		var ids []int32
		for batch := 0; batch < 3; batch++ {
			n := int(r.Uint64() % 200)
			keys := genKeys(shape, n)
			before := owned.Len()
			ids = owned.Insert(keys, n, ids)
			for row, id := range ids {
				k := refKeyOf(keys, row)
				want, ok := seen[k]
				if !ok {
					want = int32(len(seen))
					seen[k] = want
				}
				if id != want {
					t.Fatalf("iter %d batch %d row %d: id %d, want %d (first-seen order)", i, batch, row, id, want)
				}
			}
			if owned.Len() != len(seen) || owned.Len() < before {
				t.Fatalf("iter %d: Len %d, want %d", i, owned.Len(), len(seen))
			}
		}
		for id := 0; id < owned.Len() && len(shape) > 0; id++ {
			if seen[refKeyOf(owned.Keys(), id)] != int32(id) {
				t.Fatalf("iter %d: stored key %d is not the key with that id", i, id)
			}
		}

		n := int(r.Uint64() % 300)
		keys := genKeys(shape, n)
		inPlace, first := IndexRows(keys, n, nil)
		firstRow := map[string]int32{}
		for row := 0; row < n; row++ {
			k := refKeyOf(keys, row)
			if _, ok := firstRow[k]; !ok {
				firstRow[k] = int32(row)
			}
			if first[row] != firstRow[k] {
				t.Fatalf("iter %d: IndexRows row %d → %d, want %d", i, row, first[row], firstRow[k])
			}
		}
		if inPlace.Len() != len(firstRow) {
			t.Fatalf("iter %d: IndexRows Len %d, want %d", i, inPlace.Len(), len(firstRow))
		}

		m := int(r.Uint64() % 200)
		probe := genKeys(shape, m)
		got, gotOwned := inPlace.Find(probe, m, nil), owned.Find(probe, m, nil)
		for row := 0; row < m; row++ {
			k := refKeyOf(probe, row)
			want, ok := firstRow[k]
			if !ok {
				want = -1
			}
			wantOwned, ok := seen[k]
			if !ok {
				wantOwned = -1
			}
			if got[row] != want || gotOwned[row] != wantOwned {
				t.Fatalf("iter %d: Find row %d = %d/%d, want %d/%d", i, row, got[row], gotOwned[row], want, wantOwned)
			}
		}
	}
}

// TestHashSpread: the key patterns the workload is made of — consecutive
// integers, small multiples as floats, short strings with a common prefix —
// land in a half-loaded table without long probe runs. A weak mixer shows
// here as one long cluster, not as a wrong answer.
func TestHashSpread(t *testing.T) {
	const n = 1 << 14
	ints, floats, strs := NewVector(Int64), NewVector(Float64), NewVector(String)
	for i := 0; i < n; i++ {
		ints.AppendInt(int64(i))
		floats.AppendFloat(float64(i) * 0.25)
		strs.AppendStr(fmt.Sprintf("Customer#%09d", i))
	}
	for _, keys := range [][]*Vector{{ints}, {floats}, {strs}, {ints, floats}} {
		tbl, _ := IndexRows(keys, n, nil)
		longest, run := 0, 0
		for _, s := range tbl.slots {
			if s == 0 {
				run = 0
				continue
			}
			run++
			longest = max(longest, run)
		}
		if longest > 128 {
			t.Errorf("%d-column %v keys: a run of %d occupied slots at load %.2f",
				len(keys), keys[0].Typ, longest, float64(n)/float64(len(tbl.slots)))
		}
	}
}
