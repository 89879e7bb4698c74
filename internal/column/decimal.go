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
// integer times a power of ten), and Expand turns it back into the very same
// page. The page codec stores the compact form and caches the plain one, so
// nothing above the codec sees the difference; DecodeSegment also reads the
// compact form, for the store-side select, which decodes stored images.
//
// The header invariant that makes the pair safe on any page: EncodeSegment
// never writes [Float64][EncDecimalFloat], so a page that begins with it is
// one Compact wrote, and Expand(Compact(p)) == p byte for byte for every page
// that does not begin with it — the table's gob meta page included.

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

// Expand reverses Compact into a page of its own: the plain-float page an
// EncDecimalFloat image stands for, or a copy of any other bytes. It runs
// the decoder's kernel and writes the float bits straight into the page it
// returns, its one allocation; a decimal image that does not parse is an
// error.
func Expand(stored []byte) ([]byte, error) {
	if len(stored) < 2 || Type(stored[0]) != Float64 || Encoding(stored[1]) != EncDecimalFloat {
		out := make([]byte, len(stored))
		copy(out, stored)
		return out, nil
	}
	s, err := parseSegment(stored)
	if err != nil {
		return nil, err
	}
	d, err := parseDecimal(s.payload, s.n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, segmentHeader+8*s.n)
	copy(out, stored[:segmentHeader])
	out[1] = byte(EncPlainFloat)
	var fs [decimalChunk]float64
	for i := 0; i < s.n; i += len(fs) {
		f := fs[:min(len(fs), s.n-i)]
		d.floatsTo(f, i, nil)
		for j, x := range f {
			binary.LittleEndian.PutUint64(out[segmentHeader+8*(i+j):], math.Float64bits(x))
		}
	}
	return out, nil
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

// decimalChunk is how many values the decimal kernels convert at a time,
// through a buffer on the stack.
const decimalChunk = 256

// floats returns all n values, or those at rows.
func (d decimal) floats(n int, rows []int32, all bool) []float64 {
	if all {
		rows = nil
	} else {
		n = len(rows)
	}
	vals := make([]float64, n)
	d.floatsTo(vals, 0, rows)
	return vals
}

// floatsTo fills dst as nbit.unpackTo fills it with integers, a chunk of
// integers at a time.
func (d decimal) floatsTo(dst []float64, first int, rows []int32) {
	var ks [decimalChunk]int64
	for i := 0; i < len(dst); i += len(ks) {
		k := ks[:min(len(ks), len(dst)-i)]
		if rows != nil {
			d.b.unpackTo(k, 0, rows[i:i+len(k)])
		} else {
			d.b.unpackTo(k, first+i, nil)
		}
		for j, x := range k {
			dst[i+j] = float64(x) / d.div
		}
	}
}
