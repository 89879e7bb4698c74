package column

import (
	"encoding/binary"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
)

// sixEncodings returns one vector per segment encoding, in Encoding order,
// each long enough that the n-bit stream's padded tail and several runs,
// words and values are all in play.
func sixEncodings(t testing.TB) []*Vector {
	wide, packed, runs := NewVector(Int64), NewVector(Int64), NewVector(Int64)
	floats, plain, dict := NewVector(Float64), NewVector(String), NewVector(String)
	for i := 0; i < 77; i++ {
		x := int64(i) * 0x1e3779b97f4a7c15
		if i%2 == 1 {
			x = -x
		}
		wide.AppendInt(x)
		packed.AppendInt(9000 + int64(i*i%1021))
		runs.AppendInt(int64(i / 25))
		floats.AppendFloat(float64(i) / 8)
		plain.AppendStr(strings.Repeat("v", i%7) + string(rune('a'+i%26)) + strings.Repeat("-", i))
		dict.AppendStr([]string{"MAIL", "SHIP", "AIR", "", "REG AIR"}[i*i%5])
	}
	floats.F64[3], floats.F64[4] = math.NaN(), math.Copysign(0, -1)
	vecs := []*Vector{wide, packed, runs, floats, plain, dict}
	for want, v := range vecs {
		if got := Encoding(EncodeSegment(v)[1]); got != Encoding(want) {
			t.Fatalf("vector %d encodes as %v, want %v", want, got, Encoding(want))
		}
	}
	return vecs
}

// centsVector is a float column every value of which is an exact cent, of
// both signs: Compact stores it as EncDecimalFloat.
func centsVector() *Vector {
	v := NewVector(Float64)
	for i := 0; i < 77; i++ {
		v.AppendFloat(float64(int64(i*i*7919%1000003)-500000) / 100)
	}
	return v
}

// segmentPages is one page per encoding, in Encoding order: the six
// EncodeSegment writes and the decimal form Compact writes.
func segmentPages(t testing.TB) [][]byte {
	var pages [][]byte
	for _, v := range sixEncodings(t) {
		pages = append(pages, EncodeSegment(v))
	}
	compact := Compact(EncodeSegment(centsVector()))
	if got := Encoding(compact[1]); got != EncDecimalFloat {
		t.Fatalf("cents compact to %v, want %v", got, EncDecimalFloat)
	}
	return append(pages, compact)
}

// page builds a segment image by hand.
func page(typ Type, enc Encoding, count uint32, payload ...byte) []byte {
	hdr := []byte{byte(typ), byte(enc), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[2:], count)
	return append(hdr, payload...)
}

func u32(x uint32) []byte { return binary.LittleEndian.AppendUint32(nil, x) }
func u64(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }

// TestDecodeRefusesHostileCounts: a header's count is checked against the
// payload before anything is sized from it. Each of these few-byte pages used
// to ask the allocator for gigabytes (the first one killed the process with
// "fatal error: out of memory"); all must fail, quickly, under the default
// memory limit.
func TestDecodeRefusesHostileCounts(t *testing.T) {
	const huge = math.MaxUint32
	nbit := func(width byte, stream ...byte) []byte {
		return append(append(u64(7), width), stream...)
	}
	cases := map[string][]byte{
		"15-byte constant n-bit":   page(Int64, EncBitPackedInt, huge, nbit(0)...),
		"n-bit past its stream":    page(Int64, EncBitPackedInt, huge, nbit(1, 0xFF)...),
		"n-bit width 57":           page(Int64, EncBitPackedInt, 1, nbit(57, make([]byte, 8)...)...),
		"n-bit width 255":          page(Int64, EncBitPackedInt, 1, nbit(255, make([]byte, 32)...)...),
		"constant n-bit above max": page(Int64, EncBitPackedInt, MaxSegmentRows+1, nbit(0)...),
		"rle":                      page(Int64, EncRLEInt, huge, append(u64(1), u64(huge)...)...),
		"rle above max":            page(Int64, EncRLEInt, MaxSegmentRows+1, append(u64(1), u64(MaxSegmentRows+1)...)...),
		"rle run wraps":            page(Int64, EncRLEInt, 3, append(append(u64(1), u64(2)...), append(u64(1), u64(math.MaxUint64)...)...)...),
		"plain int":                page(Int64, EncPlainInt, huge),
		"plain float":              page(Float64, EncPlainFloat, huge, make([]byte, 64)...),
		"plain string":             page(String, EncPlainString, huge, u32(0)...),
		"dictionary words":         page(String, EncDictString, 1, append(u32(huge), u32(0)...)...),
		"dictionary rows":          page(String, EncDictString, huge, append(append(u32(1), u32(0)...), nbit(0)...)...),
		"int page of strings":      page(Int64, EncPlainString, 0),
		"string page of ints":      page(String, EncPlainInt, 0),
		"float page, n-bit":        page(Float64, EncBitPackedInt, 1, nbit(0)...),
		"constant decimal":         page(Float64, EncDecimalFloat, huge, append([]byte{2}, nbit(0)...)...),
		"decimal past its stream":  page(Float64, EncDecimalFloat, huge, append([]byte{2}, nbit(1, 0xFF)...)...),
		"decimal width 57":         page(Float64, EncDecimalFloat, 1, append([]byte{2}, nbit(57, make([]byte, 8)...)...)...),
		"decimal scale 5":          page(Float64, EncDecimalFloat, 1, append([]byte{5}, nbit(0)...)...),
		"decimal without a scale":  page(Float64, EncDecimalFloat, 1),
		"int page, decimal":        page(Int64, EncDecimalFloat, 1, append([]byte{2}, nbit(0)...)...),
	}
	for name, data := range cases {
		if v, err := DecodeSegment(data); err == nil {
			t.Errorf("%s: decoded %d values", name, v.Len())
		}
		if v, err := DecodeSegmentRows(data, []int32{0}); err == nil {
			t.Errorf("%s: decoded %d values at rows", name, v.Len())
		}
	}
	// The ceiling itself is legal: a constant column of MaxSegmentRows rows.
	ok := page(Int64, EncBitPackedInt, MaxSegmentRows, nbit(0)...)
	if v, err := DecodeSegment(ok); err != nil || v.Len() != MaxSegmentRows || v.I64[MaxSegmentRows-1] != 7 {
		t.Fatalf("constant column at the ceiling: %v", err)
	}
}

// TestDecodeSegmentRows: for every encoding and a spread of selections,
// decoding at rows equals decoding everything and gathering; rows at or past
// the count, or out of order, are refused.
func TestDecodeSegmentRows(t *testing.T) {
	for _, data := range segmentPages(t) {
		full, err := DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		enc, n := Encoding(data[1]), full.Len()
		every, thirds, tail := seq(n), []int32{}, []int32{int32(n - 2), int32(n - 1)}
		for r := 1; r < n; r += 3 {
			thirds = append(thirds, int32(r))
		}
		for _, rows := range [][]int32{nil, {}, {0}, {int32(n - 1)}, tail, thirds, every} {
			got, err := DecodeSegmentRows(data, rows)
			if err != nil {
				t.Fatalf("%v rows %v: %v", enc, rows, err)
			}
			if want := full.Gather(rows); !sameVector(got, want) || got.Typ != full.Typ {
				t.Fatalf("%v rows %v: decoded %+v, want %+v", enc, rows, got, want)
			}
		}
		for name, rows := range map[string][]int32{
			"at count": {0, int32(n)}, "past count": {int32(n + 5)}, "negative": {-1, 2},
			"descending": {5, 4}, "repeated": {3, 3},
		} {
			if got, err := DecodeSegmentRows(data, rows); err == nil {
				t.Errorf("%v: %s rows %v decoded to %d values", enc, name, rows, got.Len())
			}
		}
		if typ, rows, err := SegmentInfo(data); err != nil || typ != full.Typ || rows != n {
			t.Errorf("%v: SegmentInfo = %v, %d, %v", enc, typ, rows, err)
		}
	}
}

// decodeBound is what decoding data may allocate, generously: n-bit packs at
// most eight values to a byte and only the two encodings that store nothing
// per value reach MaxSegmentRows; a value costs a string header plus, in a
// dictionary page, its unpacked code.
func decodeBound(data []byte) uint64 {
	return 24*(8*uint64(len(data))+MaxSegmentRows) + 1<<20
}

// heapAllocated is the cumulative bytes allocated on the heap; a large
// allocation shows in it at once.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// FuzzDecodeSegment: arbitrary bytes decode to an error or to a vector whose
// re-encoding decodes to the same values — without panicking and, either way,
// without allocating more than the input can account for.
func FuzzDecodeSegment(f *testing.F) {
	for _, data := range segmentPages(f) {
		f.Add(data)
	}
	f.Add(page(Int64, EncBitPackedInt, math.MaxUint32, append(u64(7), 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocated()
		v, err := DecodeSegment(data)
		if grew := heapAllocated() - before; grew > decodeBound(data) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeSegment(EncodeSegment(v))
		if err != nil || !sameVector(again, v) {
			t.Fatalf("re-encoded segment decodes differently: %v", err)
		}
	})
}

// FuzzDecodeSegmentRows: on any bytes and any ascending row list, decoding at
// rows agrees with decoding everything and gathering — equal values, or both
// fail. The one licensed difference is DecodeSegmentRows' own: a dictionary
// page whose bad code sits at a row not asked for. Dict.Open, which checks
// every code, agrees with DecodeSegment outright.
func FuzzDecodeSegmentRows(f *testing.F) {
	for i, data := range segmentPages(f) {
		f.Add(data, uint64(0x9E3779B97F4A7C15)>>i, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, stride uint8) {
		full, fullErr := DecodeSegment(data)
		// Rows: every stride+1-th row whose bit in the (repeating) mask is
		// set. Never nil, which Dict.Values reads as every row.
		rows := []int32{}
		if _, n, err := SegmentInfo(data); err == nil {
			for r := 0; r < min(n, 4096); r += int(stride) + 1 {
				if mask>>(r%64)&1 == 1 {
					rows = append(rows, int32(r))
				}
			}
		}
		got, err := DecodeSegmentRows(data, rows)
		switch {
		case fullErr != nil && err == nil:
			if len(data) < 2 || Encoding(data[1]) != EncDictString {
				t.Fatalf("decoded %d rows of a page DecodeSegment refuses: %v", got.Len(), fullErr)
			}
		case fullErr == nil && err != nil:
			t.Fatalf("rows %v of a valid page: %v", rows, err)
		case err == nil:
			if want := full.Gather(rows); !sameVector(got, want) || got.Typ != want.Typ {
				t.Fatalf("rows %v: decoded %+v, want %+v", rows, got, want)
			}
		}
		// A dictionary page opened as words and codes: it opens exactly when
		// DecodeSegment reads it, and its values at every row and at rows are
		// DecodeSegment's; a page of any other encoding does not open.
		var d Dict
		opened, openErr := d.Open(data)
		switch {
		case openErr != nil && fullErr == nil:
			t.Fatalf("Dict.Open refuses a page DecodeSegment reads: %v", openErr)
		case opened != (fullErr == nil && Encoding(data[1]) == EncDictString):
			t.Fatalf("Dict.Open = %v of a page DecodeSegment reads as %+v, %v", opened, full, fullErr)
		case opened && (!sameVector(d.Values(nil), full) || !sameVector(d.Values(rows), full.Gather(rows))):
			t.Fatalf("rows %v: the dictionary's values differ from DecodeSegment's", rows)
		}
	})
}
