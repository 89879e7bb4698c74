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

// checkCompact holds Compact and Expand to their contract on one page:
// Expand(Compact(p)) is p byte for byte, and DecodeSegment reads the compact
// form as the same values, bit for bit.
func checkCompact(t *testing.T, name string, page []byte) {
	t.Helper()
	compact := Compact(page)
	back, err := Expand(compact)
	if err != nil || !bytes.Equal(back, page) {
		t.Fatalf("%s: Expand(Compact(p)) differs from p (err %v)", name, err)
	}
	want, wantErr := DecodeSegment(page)
	got, err := DecodeSegment(compact)
	if (err == nil) != (wantErr == nil) || (err == nil && !sameVector(got, want)) {
		t.Fatalf("%s: compact form decodes to %+v (%v), page to %+v (%v)", name, got, err, want, wantErr)
	}
}

// TestCompactEveryCent: every cent value from −10,000.00 to 10,000.00 — the
// whole range of TPC-H's prices, discounts and taxes but l_extendedprice's
// top — is exact at scale 2 and comes back with its own bits, one page of
// 512 at a time.
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
		if back, err := Expand(compact); err != nil || !bytes.Equal(back, page) {
			t.Fatalf("cents from %d: Expand(Compact(p)) differs (err %v)", lo, err)
		}
	}
}

// TestCompactLeavesOtherPages: Compact changes no page but an exact
// plain-float segment, and Expand returns a copy of anything that is not a
// decimal page.
func TestCompactLeavesOtherPages(t *testing.T) {
	pages := [][]byte{nil, {}, {byte(Float64)}, []byte("\x0e\xff\x81\x03\x01\x01\x04meta")}
	for _, v := range sixEncodings(t) {
		pages = append(pages, EncodeSegment(v))
	}
	cents := EncodeSegment(centsVector())
	pages = append(pages, cents[:len(cents)-1], append(bytes.Clone(cents), 0)) // short, long
	for i, page := range pages {
		if got := Compact(page); !bytes.Equal(got, page) {
			t.Errorf("page %d: compacted to %v", i, Encoding(got[1]))
		}
		back, err := Expand(page)
		if err != nil || !bytes.Equal(back, page) || back == nil {
			t.Errorf("page %d: Expand differs (err %v)", i, err)
		}
		if len(page) > 0 && &back[0] == &page[0] {
			t.Errorf("page %d: Expand returned its input", i)
		}
	}
}

// TestExpandAllocs: Expand makes the page it returns and nothing else.
func TestExpandAllocs(t *testing.T) {
	compact := Compact(EncodeSegment(centsVector()))
	if got := testing.AllocsPerRun(100, func() { _, _ = Expand(compact) }); got != 1 {
		t.Errorf("Expand: %.0f allocations, want 1", got)
	}
}

// FuzzCompactFloat builds a float page from fuzzed values — decimals at a
// fuzzed scale, of either sign, and raw bit patterns (−0.0, NaN, huge) — and
// holds Compact and Expand to their contract on it. The raw bytes go to
// Expand as well: an error or a page, never a panic, and a decimal page it
// expands reads as the values DecodeSegment reads from it.
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

		page, err := Expand(data)
		if err != nil {
			return
		}
		if len(data) < 2 || Type(data[0]) != Float64 || Encoding(data[1]) != EncDecimalFloat {
			if !bytes.Equal(page, data) {
				t.Fatal("Expand changed a page that is not a decimal one")
			}
			return
		}
		want, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("expanded a decimal page DecodeSegment refuses: %v", err)
		}
		got, err := DecodeSegment(page)
		if err != nil || !sameVector(got, want) {
			t.Fatalf("expanded page decodes differently (err %v)", err)
		}
	})
}
