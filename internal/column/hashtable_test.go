package column

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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

		lo := int(r.Uint64() % uint64(n+1))
		hi := lo + int(r.Uint64()%uint64(n-lo+1))
		for j := lo; j < hi; j++ {
			want.Append(src, j)
		}
		got.AppendRange(src, lo, hi)
		if !sameVector(got, want) {
			t.Fatalf("iter %d (seed %d): AppendRange [%d, %d) of %s differs", i, *propSeed, lo, hi, src.Typ)
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

// hashedIndex is IndexRows held to the hashed form, whatever the keys.
func hashedIndex(keys []*Vector, n int) *HashTable {
	t := &HashTable{keys: keys, inPlace: true}
	t.rehash(slotsFor(n))
	t.probe(keys, n, nil, true)
	return t
}

// TestHashSpread: the key patterns the workload is made of — consecutive
// integers, small multiples as floats, short strings with a common prefix —
// land in a half-loaded table without long probe runs. A weak mixer shows
// here as one long cluster, not as a wrong answer. One consecutive-integer
// column would take the direct form, so every table here is built hashed.
func TestHashSpread(t *testing.T) {
	const n = 1 << 14
	ints, floats, strs := NewVector(Int64), NewVector(Float64), NewVector(String)
	for i := 0; i < n; i++ {
		ints.AppendInt(int64(i))
		floats.AppendFloat(float64(i) * 0.25)
		strs.AppendStr(fmt.Sprintf("Customer#%09d", i))
	}
	for _, keys := range [][]*Vector{{ints}, {floats}, {strs}, {ints, floats}} {
		tbl := hashedIndex(keys, n)
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

// TestHashStringTail holds hashString's overlapping loads of a string's last
// 0–7 bytes to the byte-at-a-time fold they replace, at every length and
// offset of a string with high and zero bytes in it.
func TestHashStringTail(t *testing.T) {
	ref := func(h uint64, s string) uint64 {
		last := uint64(len(s)) << 56
		for ; len(s) >= 8; s = s[8:] {
			h = Mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		}
		for i := 0; i < len(s); i++ {
			last |= uint64(s[i]) << (8 * i)
		}
		return Mix(h, last)
	}
	b := "\xff\x01\x80abcdefghijklmnopqrstuvwxyz\x00\xfe0123456789"
	for i := 0; i <= len(b); i++ {
		for j := i; j <= len(b); j++ {
			if got, want := hashString(hashSeed, b[i:j]), ref(hashSeed, b[i:j]); got != want {
				t.Fatalf("hashString(%q) = %#x, want %#x", b[i:j], got, want)
			}
		}
	}
}

// form names the form a table is in: "empty" before its first key, then
// "direct" or "hashed".
func (t *HashTable) form() string {
	switch {
	case t.direct != nil && t.slots == nil:
		return "direct"
	case t.slots != nil && t.direct == nil:
		return "hashed"
	case t.slots == nil && t.direct == nil:
		return "empty"
	}
	return "both"
}

func intKeys(ks ...int64) []*Vector { return []*Vector{{Typ: Int64, I64: ks}} }

func intRange(lo, n, step int64) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = lo + int64(i)*step
	}
	return ks
}

// TestHashTableForms pins which form a table takes: a dense single Int64 key
// is direct, a sparse one or any other shape is hashed, and an Insert stream
// stays direct until the first batch that breaks the bound, converts there
// once and stays hashed.
func TestHashTableForms(t *testing.T) {
	for _, c := range []struct {
		name string
		keys []*Vector
		want string
	}{
		{"dense", intKeys(intRange(1000, 3000, 1)...), "direct"},
		{"dense with repeats", intKeys(intRange(-50, 3000, 0)...), "direct"},
		{"at the bound", intKeys(append(intRange(0, 999, 1), int64(directPerSlot*slotsFor(1000)-1))...), "direct"},
		{"past the bound", intKeys(append(intRange(0, 999, 1), int64(directPerSlot*slotsFor(1000)))...), "hashed"},
		{"sparse", intKeys(intRange(0, 3000, 1000)...), "hashed"},
		{"both ends of int64", intKeys(math.MinInt64, math.MaxInt64), "hashed"},
		{"top of int64", intKeys(math.MaxInt64, math.MaxInt64-3), "direct"},
		{"float", []*Vector{{Typ: Float64, F64: []float64{1, 2, 3}}}, "hashed"},
		{"two ints", []*Vector{intKeys(1, 2)[0], intKeys(1, 2)[0]}, "hashed"},
	} {
		n := c.keys[0].Len()
		tbl, ids := IndexRows(c.keys, n, nil)
		if got := tbl.form(); got != c.want {
			t.Errorf("%s: IndexRows took the %s form, want %s", c.name, got, c.want)
		}
		if found := tbl.Find(c.keys, n, nil); !slices.Equal(found, ids) {
			t.Errorf("%s: Find of the build keys %v, want %v", c.name, found, ids)
		}
	}
	if got := (&HashTable{}).form(); got != "empty" {
		t.Errorf("zero table is %s", got)
	}
	miss := intKeys(math.MinInt64, math.MaxInt64, 2, 3003, 999, -1)
	if tbl, _ := IndexRows(intKeys(intRange(0, 3000, 1)...), 3000, nil); !slices.Equal(tbl.Find(miss, 6, nil), []int32{-1, -1, 2, -1, 999, -1}) {
		t.Errorf("direct Find out of range: %v", tbl.Find(miss, 6, nil))
	}

	// An Insert stream: dense batches, then one that widens the range past
	// the bound, then dense ones again.
	var tbl HashTable
	var ids []int32
	seen := 0
	for b := 0; b < 8; b++ {
		ks := intRange(int64(b)*512, 512, 1)
		if b == 1 {
			ids = tbl.Insert(intKeys(), 0, ids) // an empty batch decides nothing
		}
		if b == 4 {
			ks[100] = 1 << 40
		}
		ids = tbl.Insert(intKeys(ks...), len(ks), ids)
		want := "direct"
		if b >= 4 {
			want = "hashed"
		}
		if got := tbl.form(); got != want {
			t.Fatalf("after batch %d the table is %s, want %s", b, got, want)
		}
		for r, id := range ids {
			if int(id) != seen+r {
				t.Fatalf("batch %d row %d: id %d, want %d", b, r, id, seen+r)
			}
		}
		seen += len(ks)
		if tbl.direct != nil && uint64(len(tbl.direct)) > directLimit(tbl.n)+1 {
			t.Fatalf("batch %d: %d direct entries for %d keys", b, len(tbl.direct), tbl.n)
		}
	}
	if found := tbl.Find(intKeys(1<<40, 4*512+100, 0, 4095, 4096), 5, nil); !slices.Equal(found, []int32{4*512 + 100, -1, 0, 4095, -1}) {
		t.Errorf("Find after the conversion: %v", found)
	}
}

// TestDirectGrowsBothWays: an Insert stream that walks down from the top of
// int64 and then up from the bottom of its first batch keeps the direct form
// and its ids, the array never passing either end of int64.
func TestDirectGrowsBothWays(t *testing.T) {
	for _, start := range []int64{math.MaxInt64 - 40, math.MinInt64 + 40, 0} {
		var tbl HashTable
		ref := map[int64]int32{}
		for b := 0; b < 12; b++ {
			ks := intRange(start-int64(b)*3, 8, 1) // downwards, overlapping
			if b%3 == 2 {
				ks = intRange(start+int64(b)*3, 8, -1) // upwards
			}
			ids := tbl.Insert(intKeys(ks...), len(ks), nil)
			for r, k := range ks {
				want, ok := ref[k]
				if !ok {
					want = int32(len(ref))
					ref[k] = want
				}
				if ids[r] != want {
					t.Fatalf("start %d batch %d key %d: id %d, want %d", start, b, k, ids[r], want)
				}
			}
			if tbl.form() != "direct" {
				t.Fatalf("start %d batch %d: %s", start, b, tbl.form())
			}
			if top := uint64(tbl.lo) + uint64(len(tbl.direct)) - 1; int64(top) < tbl.lo {
				t.Fatalf("start %d batch %d: array [%d, +%d) wraps past MaxInt64", start, b, tbl.lo, len(tbl.direct))
			}
		}
	}
	// Growing up against MaxInt64 puts the new room below instead.
	var tbl HashTable
	tbl.Insert(intKeys(intRange(math.MaxInt64-7, 7, 1)...), 7, nil)
	if ids := tbl.Insert(intKeys(math.MaxInt64), 1, nil); ids[0] != 7 || tbl.form() != "direct" ||
		tbl.lo+int64(len(tbl.direct)-1) != math.MaxInt64 || len(tbl.direct) != 14 {
		t.Fatalf("id %d, %s array [%d, +%d)", ids[0], tbl.form(), tbl.lo, len(tbl.direct))
	}
}

// FuzzHashTableForms drives an Insert stream and an IndexRows table over one
// Int64 key column through both forms: keys are base + int8(byte)·stride,
// wrapping at the ends of int64, and a batch whose header has its top bit
// set spreads its keys 2^24 times wider. Ids, Len, Keys and Find (including
// keys the table never saw) are checked against a map.
func FuzzHashTableForms(f *testing.F) {
	f.Add(int64(0), uint16(1), []byte{4, 1, 2, 3, 4, 2, 1, 5, 0, 3, 0x80, 0x7f, 9})
	f.Add(int64(math.MaxInt64), uint16(1), []byte{3, 0, 1, 2, 3, 0xf0, 0x10, 2, 0x85, 1, 2, 0x30, 7})
	f.Add(int64(math.MinInt64), uint16(1), []byte{3, 0, 0xff, 0xfe, 0, 2, 0x7f, 0x80, 0x81, 1, 2, 3, 4, 5})
	f.Add(int64(-5), uint16(3000), []byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 1, 9})
	f.Add(int64(1<<40), uint16(0), []byte{5, 1, 2, 3, 4, 5, 0, 0})
	f.Fuzz(func(t *testing.T, base int64, stride uint16, ops []byte) {
		var batches [][]int64
		for len(ops) > 0 {
			h := ops[0]
			n := min(int(h&0x3f), len(ops)-1)
			spread := int64(1)
			if h&0x80 != 0 {
				spread = 1 << 24
			}
			ks := make([]int64, n)
			for i, b := range ops[1 : 1+n] {
				ks[i] = base + int64(int8(b))*int64(stride)*spread
			}
			batches = append(batches, ks)
			ops = ops[1+n:]
		}

		var owned HashTable
		seen := map[int64]int32{}
		var all []int64
		var ids []int32
		for b, ks := range batches {
			ids = owned.Insert(intKeys(ks...), len(ks), ids)
			for r, k := range ks {
				want, ok := seen[k]
				if !ok {
					want = int32(len(seen))
					seen[k] = want
				}
				if ids[r] != want {
					t.Fatalf("batch %d key %d: id %d, want %d (%s)", b, k, ids[r], want, owned.form())
				}
			}
			if owned.Len() != len(seen) {
				t.Fatalf("batch %d: Len %d, want %d", b, owned.Len(), len(seen))
			}
			all = append(all, ks...)
		}
		if len(seen) > 0 {
			for id, k := range owned.Keys()[0].I64 {
				if seen[k] != int32(id) {
					t.Fatalf("stored key %d is %d, which has id %d", id, k, seen[k])
				}
			}
		}

		inPlace, first := IndexRows(intKeys(all...), len(all), nil)
		firstRow := map[int64]int32{}
		for r, k := range all {
			if _, ok := firstRow[k]; !ok {
				firstRow[k] = int32(r)
			}
			if first[r] != firstRow[k] {
				t.Fatalf("IndexRows row %d (%d) → %d, want %d (%s)", r, k, first[r], firstRow[k], inPlace.form())
			}
		}
		if inPlace.Len() != len(firstRow) {
			t.Fatalf("IndexRows Len %d, want %d", inPlace.Len(), len(firstRow))
		}

		probe := []int64{base - 1, base + 1, base - 129*int64(stride), base + 128*int64(stride), math.MinInt64, math.MaxInt64}
		for _, ks := range batches {
			for _, k := range ks {
				probe = append(probe, k, k+1, k-1, ^k)
			}
		}
		got, gotOwned := inPlace.Find(intKeys(probe...), len(probe), nil), owned.Find(intKeys(probe...), len(probe), nil)
		for r, k := range probe {
			want, ok := firstRow[k]
			if !ok {
				want = -1
			}
			wantOwned, ok := seen[k]
			if !ok {
				wantOwned = -1
			}
			if got[r] != want || gotOwned[r] != wantOwned {
				t.Fatalf("Find %d = %d/%d, want %d/%d (%s/%s)", k, got[r], gotOwned[r], want, wantOwned, inPlace.form(), owned.form())
			}
		}
	})
}
