package column

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestCompactScales: a page takes the smallest scale in 0..4 at which every
// value is exact, and one value that is exact at no scale — or one of the
// values whose bits no integer quotient has — keeps the whole page plain.
func TestCompactScales(t *testing.T) {
	const rows = 64
	fill := func(f func(i int) float64) []float64 {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	with := func(vals []float64, odd float64) []float64 {
		vals = append([]float64(nil), vals...)
		vals[rows/2] = odd
		return vals
	}
	cents := fill(func(i int) float64 { return float64(i*104729%100000-50000) / 100 })
	cases := []struct {
		name  string
		vals  []float64
		scale int // -1: stays EncPlainFloat
	}{
		{"integers", fill(func(i int) float64 { return float64(i%50 + 1) }), 0},
		{"tenths", fill(func(i int) float64 { return float64(i) / 10 }), 1},
		{"cents", cents, 2},
		{"eighths", fill(func(i int) float64 { return float64(i) / 8 }), 3},
		{"ten-thousandths", fill(func(i int) float64 { return float64(i) / 10000 }), 4},
		{"one beyond scale 4", with(cents, 0.00001), -1},
		{"negative zero", with(cents, math.Copysign(0, -1)), -1},
		{"NaN", with(cents, math.NaN()), -1},
		{"+Inf", with(cents, math.Inf(1)), -1},
		{"-Inf", with(cents, math.Inf(-1)), -1},
		{"2^53", with(cents, 1<<53), -1},
		{"2^53 at scale 2", with(cents, float64(1<<53)/100), -1},
		{"largest integer below 2^53", with(fill(func(i int) float64 { return float64(i) }), 1<<53-1), 0},
		{"constant", fill(func(int) float64 { return 19.99 }), 2},
		{"not shorter: one row", []float64{12.5}, -1},
	}
	for _, c := range cases {
		page := EncodeSegment(floatVec(c.vals...))
		compact := Compact(page)
		switch enc := Encoding(compact[1]); {
		case c.scale < 0 && (enc != EncPlainFloat || &compact[0] != &page[0]):
			t.Errorf("%s: compacted to %v, want the page itself", c.name, enc)
		case c.scale >= 0 && (enc != EncDecimalFloat || int(compact[segmentHeader]) != c.scale):
			t.Errorf("%s: compacted to %v at scale %d, want scale %d", c.name, enc, compact[segmentHeader], c.scale)
		case c.scale >= 0 && len(compact) >= len(page):
			t.Errorf("%s: compact form %d bytes, plain %d", c.name, len(compact), len(page))
		}
		checkCompact(t, c.name, page)
	}
}

// checkCompact holds Compact to its contract on one page: DecodeSegment reads
// the compact form as the values the page holds, bit for bit, at every row
// and at a selection of rows.
func checkCompact(t *testing.T, name string, page []byte) {
	t.Helper()
	compact := Compact(page)
	want, wantErr := DecodeSegment(page)
	got, err := DecodeSegment(compact)
	if (err == nil) != (wantErr == nil) || (err == nil && !sameVector(got, want)) {
		t.Fatalf("%s: compact form decodes to %+v (%v), page to %+v (%v)", name, got, err, want, wantErr)
	}
	if err != nil {
		return
	}
	var rows []int32
	for r := 0; r < want.Len(); r += 3 {
		rows = append(rows, int32(r))
	}
	if got, err := DecodeSegmentRows(compact, rows); err != nil || !sameVector(got, want.Gather(rows)) {
		t.Fatalf("%s: compact form decodes at rows %v to %+v (%v)", name, rows, got, err)
	}
}

// TestCompactEveryCent: every cent value from −10,000.00 to 10,000.00 — the
// whole range of TPC-H's prices, discounts and taxes but l_extendedprice's
// top — is exact at scale 2 and decodes to its own bits, one page of 512 at a
// time.
func TestCompactEveryCent(t *testing.T) {
	vals := make([]float64, 512)
	for lo := -1000000; lo <= 1000000; lo += len(vals) {
		for i := range vals {
			vals[i] = float64(lo+i) / 100
		}
		page := EncodeSegment(floatVec(vals...))
		compact := Compact(page)
		if Encoding(compact[1]) != EncDecimalFloat || compact[segmentHeader] != 2 {
			t.Fatalf("cents from %d: compacted to %v", lo, Encoding(compact[1]))
		}
		if got, err := DecodeSegment(compact); err != nil || !sameVector(got, floatVec(vals...)) {
			t.Fatalf("cents from %d: the compact form decodes to other values (err %v)", lo, err)
		}
	}
}

// TestCompactLeavesOtherPages: Compact changes no page but an exact
// plain-float segment, and returns any other page as it is.
func TestCompactLeavesOtherPages(t *testing.T) {
	pages := [][]byte{nil, {}, {byte(Float64)}, []byte("\x0e\xff\x81\x03\x01\x01\x04meta")}
	for _, v := range sixEncodings(t) {
		pages = append(pages, EncodeSegment(v))
	}
	cents := EncodeSegment(centsVector())
	pages = append(pages, cents[:len(cents)-1], append(bytes.Clone(cents), 0)) // short, long
	for i, page := range pages {
		if got := Compact(page); !bytes.Equal(got, page) || (len(page) > 0 && &got[0] != &page[0]) {
			t.Errorf("page %d: compacted to %v", i, Encoding(got[1]))
		}
	}
}

// TestDecodeDecimalAllocs: decoding a compact page makes the vector and its
// values, as decoding the plain page does, and nothing else: the integers are
// converted as they are unpacked.
func TestDecodeDecimalAllocs(t *testing.T) {
	page := EncodeSegment(centsVector())
	compact := Compact(page)
	plain := testing.AllocsPerRun(100, func() { _, _ = DecodeSegment(page) })
	if got := testing.AllocsPerRun(100, func() { _, _ = DecodeSegment(compact) }); got != plain {
		t.Errorf("DecodeSegment of a decimal page: %.0f allocations, %.0f for the plain page", got, plain)
	}
}

// FuzzCompactFloat builds a float page from fuzzed values — decimals at a
// fuzzed scale, of either sign, and raw bit patterns (−0.0, NaN, huge) — and
// holds Compact to its contract on it. The raw bytes go to DecodeSegment as
// well: a decimal page it accepts must read the same once its values are
// encoded and compacted again.
func FuzzCompactFloat(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, 1999), uint8(0x22))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint8(0x80))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63), uint8(0xff))
	f.Add(Compact(EncodeSegment(centsVector())), uint8(0x02))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		// Every 8 bytes are one value. The low bits of mode pick the scale
		// of the decimal values; with its top bit set, every fourth value
		// is the raw bits instead.
		v := NewVector(Float64)
		for i := 0; 8*i+8 <= len(data) && i < 4096; i++ {
			x := binary.LittleEndian.Uint64(data[8*i:])
			if mode&0x80 != 0 && i%4 == 3 {
				v.AppendFloat(math.Float64frombits(x))
				continue
			}
			k := int64(x) >> (11 + x%8) // a spread of magnitudes
			v.AppendFloat(float64(k) / pow10[int(mode)%(maxDecimalScale+1)])
		}
		checkCompact(t, "fuzzed values", EncodeSegment(v))

		if len(data) < 2 || Type(data[0]) != Float64 || Encoding(data[1]) != EncDecimalFloat {
			return
		}
		want, err := DecodeSegment(data)
		if err != nil {
			return
		}
		got, err := DecodeSegment(Compact(EncodeSegment(want)))
		if err != nil || !sameVector(got, want) {
			t.Fatalf("a decimal page's values, compacted again, decode differently (err %v)", err)
		}
	})
}

// decimalColumns are 512-row columns shaped like TPC-H's three exact-decimal
// lineitem columns: l_extendedprice (cents up to about 100,000.00),
// l_discount (0.00–0.10) and l_quantity (whole numbers 1–50).
func decimalColumns() []segmentShape {
	x := lcg(3)
	price, discount, quantity := NewVector(Float64), NewVector(Float64), NewVector(Float64)
	for i := 0; i < 512; i++ {
		qty := 1 + x.next()%50
		price.AppendFloat(float64(qty*(90000+x.next()%110000)) / 100)
		discount.AppendFloat(float64(x.next()%11) / 100)
		quantity.AppendFloat(float64(qty))
	}
	return []segmentShape{{"price", EncDecimalFloat, price}, {"discount", EncDecimalFloat, discount}, {"quantity", EncDecimalFloat, quantity}}
}

var decodeSink *Vector

// nbitColumns are int pages the packer writes n-bit: a date-like column of
// width 12 and a key-like one of width 17.
func nbitColumns() []segmentShape {
	x := lcg(5)
	date, key := NewVector(Int64), NewVector(Int64)
	for i := 0; i < 512; i++ {
		date.AppendInt(8035 + int64(x.next()%(1<<12)))
		key.AppendInt(1 + int64(x.next()%(1<<17)))
	}
	date.I64[0], date.I64[1] = 8035, 8035+1<<12-1
	key.I64[0], key.I64[1] = 1, 1<<17
	return []segmentShape{{"date", EncBitPackedInt, date}, {"key", EncBitPackedInt, key}}
}

// BenchmarkDecodeSegment reads each decimal column from its plain page and
// from the compact page the table stores and the pool caches, and the n-bit
// int pages of nbitColumns.
func BenchmarkDecodeSegment(b *testing.B) {
	type form struct {
		name string
		page []byte
	}
	var forms []form
	for _, c := range decimalColumns() {
		plain := EncodeSegment(c.v)
		compact := Compact(plain)
		if Encoding(compact[1]) != c.enc {
			b.Fatalf("%s: compacted to %v", c.name, Encoding(compact[1]))
		}
		forms = append(forms, form{c.name + "/plain", plain}, form{c.name + "/compact", compact})
	}
	for i, c := range nbitColumns() {
		page := EncodeSegment(c.v)
		if Encoding(page[1]) != c.enc || int(page[segmentHeader+8]) != []int{12, 17}[i] {
			b.Fatalf("%s: encoded as %v of width %d", c.name, Encoding(page[1]), page[segmentHeader+8])
		}
		forms = append(forms, form{c.name + "/nbit", page})
	}
	for _, f := range forms {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decodeSink, _ = DecodeSegment(f.page)
			}
		})
	}
}
