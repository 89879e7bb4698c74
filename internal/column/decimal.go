package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The stored form of a float page. TPC-H's money and quantity columns are
// exact decimals held as float64, which DEFLATE can only Huffman-code byte by
// byte. Compact turns such a plain-float page into the n-bit integers
// k = v·10^scale (ALP's observation: a double that is a short decimal is an
// integer times a power of ten). The table writes the compact form, so it is
// what the page codec stores and the buffer pool caches, and DecodeSegment
// reads it as the values the plain page holds, bit for bit.

// maxDecimalScale is the largest scale Compact tries: cents need 2, TPC-H
// needs no more, and each scale tried costs a pass over a page that fails.
const maxDecimalScale = 4

var pow10 = [maxDecimalScale + 1]float64{1, 10, 100, 1000, 10000}

// Compact returns the stored form of page: a plain-float segment whose
// values are all exact decimals becomes an EncDecimalFloat page when that is
// shorter, and any other page comes back as it is. A value is exact at scale
// s when k = round(v·10^s) is below 2^53 in magnitude and float64(k)/10^s has
// v's bits — so −0.0, NaN and ±Inf never are — and the page takes the
// smallest s at which every value is. Division is the decoder because it is
// the exact one: v·0.01 mis-rounds about one cent value in seven.
func Compact(page []byte) []byte {
	n, ok := plainFloats(page)
	if !ok || n == 0 || n > MaxSegmentRows {
		return page
	}
	payload := page[segmentHeader:]
	for s := 0; s <= maxDecimalScale; s++ {
		lo, hi, ok := scaleTo(nil, payload, s)
		if !ok {
			continue
		}
		width := bits.Len64(uint64(hi) - uint64(lo))
		size := 1 + packedLen(n, width)
		if size >= len(payload) {
			return page
		}
		ks := make([]int64, n)
		scaleTo(ks, payload, s)
		out := newPage(size)
		copy(out, page[:segmentHeader])
		out[1] = byte(EncDecimalFloat)
		out = append(out, byte(s))
		return packInts(out, ks, lo, width)
	}
	return page
}

// plainFloats reports whether page is exactly a plain-float segment — header,
// and eight bytes for each of its n values, nothing after — and its n.
func plainFloats(page []byte) (int, bool) {
	if len(page) < segmentHeader || Type(page[0]) != Float64 || Encoding(page[1]) != EncPlainFloat {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(page[2:]))
	return n, len(page)-segmentHeader == 8*n
}

// scaleTo returns the range of the integers the plain-float payload holds at
// scale s, or false at the first value that is not exact; with ks non-nil it
// also stores them there. Only a page that passes is scaled twice, the first
// time to size the page and ks.
func scaleTo(ks []int64, payload []byte, s int) (lo, hi int64, ok bool) {
	p := pow10[s]
	for i := 0; 8*i < len(payload); i++ {
		b := binary.LittleEndian.Uint64(payload[8*i:])
		r := math.Round(math.Float64frombits(b) * p)
		if !(math.Abs(r) < 1<<53) { // NaN fails too
			return 0, 0, false
		}
		k := int64(r)
		if math.Float64bits(float64(k)/p) != b {
			return 0, 0, false
		}
		if i == 0 || k < lo {
			lo = k
		}
		if i == 0 || k > hi {
			hi = k
		}
		if ks != nil {
			ks[i] = k
		}
	}
	return lo, hi, true
}

// decimal is a parsed EncDecimalFloat payload: value r is the block's
// integer r divided by 10^scale.
type decimal struct {
	div float64
	b   nbit
}

// parseDecimal reads [scale u8][n-bit block of n values].
func parseDecimal(payload []byte, n int) (decimal, error) {
	if len(payload) < 1 || payload[0] > maxDecimalScale {
		return decimal{}, fmt.Errorf("column: decimal-float page without a scale in 0..%d", maxDecimalScale)
	}
	b, err := parseNbit(payload[1:], n)
	return decimal{pow10[payload[0]], b}, err
}

// floats returns all n values, or those at rows: nbit's kernel, each integer
// then divided by 10^scale. At scale 0 the integers are the values, and there
// is no division to make.
func (d decimal) floats(n int, rows []int32, all bool) []float64 {
	if !all {
		vals := make([]float64, len(rows))
		for i, r := range rows {
			vals[i] = float64(d.b.at(int(r))) / d.div
		}
		return vals
	}
	vals := make([]float64, n)
	unpackTo(d.b, vals, 0, d.div)
	return vals
}
