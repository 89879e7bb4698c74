package column

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func intVec(vals ...int64) *Vector     { return &Vector{Typ: Int64, I64: vals} }
func floatVec(vals ...float64) *Vector { return &Vector{Typ: Float64, F64: vals} }
func strVec(vals ...string) *Vector    { return &Vector{Typ: String, Str: vals} }

func roundTrip(t *testing.T, v *Vector) (*Vector, Encoding) {
	t.Helper()
	data := EncodeSegment(v)
	got, err := DecodeSegment(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got, Encoding(data[1])
}

func TestIntRoundTripBitPacked(t *testing.T) {
	v := intVec(100, 105, 102, 150, 120, 149)
	got, enc := roundTrip(t, v)
	if enc != EncBitPackedInt {
		t.Fatalf("encoding = %v, want nbit", enc)
	}
	if !reflect.DeepEqual(got.I64, v.I64) {
		t.Fatalf("got %v", got.I64)
	}
}

func TestIntConstantColumnUsesZeroWidth(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = 42
	}
	v := intVec(vals...)
	data := EncodeSegment(v)
	// RLE wins for constant data; both are tiny, but either way the
	// payload must be far below 800 bytes.
	if len(data) > 64 {
		t.Fatalf("constant column encoded to %d bytes", len(data))
	}
	got, err := DecodeSegment(data)
	if err != nil || !reflect.DeepEqual(got.I64, vals) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestIntExtremesFallBackToPlain(t *testing.T) {
	v := intVec(math.MinInt64, math.MaxInt64, 0, -1)
	got, enc := roundTrip(t, v)
	if enc != EncPlainInt {
		t.Fatalf("encoding = %v, want plain", enc)
	}
	if !reflect.DeepEqual(got.I64, v.I64) {
		t.Fatalf("got %v", got.I64)
	}
}

func TestIntRLEChosenForRuns(t *testing.T) {
	var vals []int64
	for v := int64(0); v < 4; v++ {
		for i := 0; i < 100; i++ {
			vals = append(vals, v*1000)
		}
	}
	v := intVec(vals...)
	data := EncodeSegment(v)
	if Encoding(data[1]) != EncRLEInt {
		t.Fatalf("encoding = %v, want rle", Encoding(data[1]))
	}
	if len(data) > 6+4*16 {
		t.Fatalf("rle encoded to %d bytes", len(data))
	}
	got, err := DecodeSegment(data)
	if err != nil || !reflect.DeepEqual(got.I64, vals) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	v := floatVec(1.5, -2.25, math.Pi, 0, math.Inf(1))
	got, enc := roundTrip(t, v)
	if enc != EncPlainFloat {
		t.Fatalf("encoding = %v", enc)
	}
	if !reflect.DeepEqual(got.F64, v.F64) {
		t.Fatalf("got %v", got.F64)
	}
}

func TestStringDictChosenForLowCardinality(t *testing.T) {
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, []string{"ASIA", "EUROPE", "AMERICA"}[i%3])
	}
	v := strVec(vals...)
	data := EncodeSegment(v)
	if Encoding(data[1]) != EncDictString {
		t.Fatalf("encoding = %v, want dict", Encoding(data[1]))
	}
	plain := len(encodePlainStrings(vals))
	if len(data) >= plain/4 {
		t.Fatalf("dict encoding %d bytes vs plain %d: not compressing", len(data), plain)
	}
	got, err := DecodeSegment(data)
	if err != nil || !reflect.DeepEqual(got.Str, vals) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestStringHighCardinalityStaysPlain(t *testing.T) {
	var vals []string
	for i := 0; i < 50; i++ {
		vals = append(vals, strings.Repeat("x", i)+"unique")
	}
	v := strVec(vals...)
	data := EncodeSegment(v)
	if Encoding(data[1]) != EncPlainString {
		t.Fatalf("encoding = %v, want plain", Encoding(data[1]))
	}
	got, err := DecodeSegment(data)
	if err != nil || !reflect.DeepEqual(got.Str, vals) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestEmptyVectors(t *testing.T) {
	for _, v := range []*Vector{intVec(), floatVec(), strVec()} {
		got, _ := roundTrip(t, v)
		if got.Len() != 0 || got.Typ != v.Typ {
			t.Fatalf("empty %v round trip: %+v", v.Typ, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeSegment([]byte{1}); err == nil {
		t.Fatal("short segment accepted")
	}
	if _, err := DecodeSegment([]byte{0, 99, 1, 0, 0, 0}); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	// Claim 100 plain ints but supply none.
	if _, err := DecodeSegment([]byte{0, 0, 100, 0, 0, 0}); err == nil {
		t.Fatal("truncated plain-int accepted")
	}
	full := EncodeSegment(strVec("hello", "world", "hello"))
	if _, err := DecodeSegment(full[:len(full)-2]); err == nil {
		t.Fatal("truncated string segment accepted")
	}
}

func TestPropertyIntRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		got, err := DecodeSegment(EncodeSegment(intVec(vals...)))
		return err == nil && reflect.DeepEqual(append([]int64{}, got.I64...), append([]int64{}, vals...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(vals []string, dup uint8) bool {
		// Mix in duplicates so both encodings get exercised.
		all := append([]string{}, vals...)
		for i := 0; i < int(dup); i++ {
			if len(vals) > 0 {
				all = append(all, vals[i%len(vals)])
			}
		}
		got, err := DecodeSegment(EncodeSegment(strVec(all...)))
		if err != nil || got.Len() != len(all) {
			return false
		}
		for i := range all {
			if got.Str[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFloatRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		got, err := DecodeSegment(EncodeSegment(floatVec(vals...)))
		if err != nil || got.Len() != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(got.F64[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	v := intVec(10, 20, 30, 40)
	if v.Len() != 4 {
		t.Fatalf("Len = %d", v.Len())
	}
	s := v.Slice(1, 3)
	if !reflect.DeepEqual(s.I64, []int64{20, 30}) {
		t.Fatalf("Slice = %v", s.I64)
	}
	g := v.Gather([]int32{3, 0})
	if !reflect.DeepEqual(g.I64, []int64{40, 10}) {
		t.Fatalf("Gather = %v", g.I64)
	}
	dst := NewVector(Int64)
	dst.Append(v, 2)
	if !reflect.DeepEqual(dst.I64, []int64{30}) {
		t.Fatalf("Append = %v", dst.I64)
	}
	sv := strVec("a", "b")
	gv := sv.Gather([]int32{1})
	if gv.Str[0] != "b" {
		t.Fatalf("string gather = %v", gv.Str)
	}
	fv := floatVec(1, 2)
	if fv.Slice(0, 1).F64[0] != 1 {
		t.Fatal("float slice")
	}
}

func TestDateConversions(t *testing.T) {
	d := DateToDays(1998, time.December, 1)
	back := DaysToDate(d)
	if back.Year() != 1998 || back.Month() != time.December || back.Day() != 1 {
		t.Fatalf("round trip = %v", back)
	}
	if DateToDays(1970, time.January, 1) != 0 {
		t.Fatal("epoch not zero")
	}
	if DateToDays(1970, time.January, 2) != 1 {
		t.Fatal("day arithmetic broken")
	}
}

func TestZoneMapInt(t *testing.T) {
	z := BuildZoneMap(intVec(5, 1, 9))
	if !z.MayContainI64(9, 20) || !z.MayContainI64(-5, 1) || !z.MayContainI64(3, 4) {
		t.Fatal("in-range probes failed")
	}
	if z.MayContainI64(10, 20) || z.MayContainI64(-10, 0) {
		t.Fatal("out-of-range probes matched")
	}
	empty := BuildZoneMap(intVec())
	if empty.MayContainI64(math.MinInt64, math.MaxInt64) {
		t.Fatal("empty zone map matched")
	}
}

func TestZoneMapFloatAndString(t *testing.T) {
	zf := BuildZoneMap(floatVec(1.5, 2.5))
	if !zf.MayContainF64(2, 3) || zf.MayContainF64(3, 4) {
		t.Fatal("float zone map wrong")
	}
	// A NaN anywhere (first or not) must leave bounds that prune nothing:
	// comparisons treat NaN as equal to every value.
	for _, v := range []*Vector{floatVec(math.NaN(), 1, 2), floatVec(1, math.NaN(), 2)} {
		if z := BuildZoneMap(v); !z.MayContainF64(100, 200) || !z.MayContainF64(-7, -7) {
			t.Fatalf("zone map of %v prunes: %+v", v.F64, z)
		}
	}
	zs := BuildZoneMap(strVec("EUROPE", "ASIA"))
	if !zs.MayContainStr("ASIA", "ASIA") || zs.MayContainStr("F", "Z") {
		t.Fatal("string zone map wrong")
	}
	// Long strings truncate conservatively: values beyond the truncation
	// point must still be covered.
	long := strings.Repeat("m", 40)
	zl := BuildZoneMap(strVec(long))
	if !zl.MayContainStr(long, long) {
		t.Fatal("truncated bounds exclude their own value")
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("type names wrong")
	}
	if Type(9).String() != "type(9)" {
		t.Fatal("unknown type name wrong")
	}
}
