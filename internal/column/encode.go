package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Encoding identifies how a segment's values are laid out on the page.
type Encoding uint8

// Segment encodings. The chooser picks the cheapest applicable one.
const (
	// EncPlainInt stores fixed 64-bit integers.
	EncPlainInt Encoding = iota
	// EncBitPackedInt stores (value - min) in the minimal bit width — SAP
	// IQ's n-bit representation.
	EncBitPackedInt
	// EncRLEInt stores (value, runLength) pairs; chosen for long runs.
	EncRLEInt
	// EncPlainFloat stores IEEE-754 bits.
	EncPlainFloat
	// EncPlainString stores length-prefixed bytes.
	EncPlainString
	// EncDictString stores a sorted dictionary plus n-bit packed codes.
	EncDictString
)

func (e Encoding) String() string {
	switch e {
	case EncPlainInt:
		return "plain-int"
	case EncBitPackedInt:
		return "nbit-int"
	case EncRLEInt:
		return "rle-int"
	case EncPlainFloat:
		return "plain-float"
	case EncPlainString:
		return "plain-string"
	case EncDictString:
		return "dict-string"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// EncodeSegment serializes v, choosing an encoding from its statistics.
// The layout is [type u8][encoding u8][count u32][payload].
func EncodeSegment(v *Vector) []byte {
	n := v.Len()
	hdr := make([]byte, 6)
	hdr[0] = byte(v.Typ)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(n))
	switch v.Typ {
	case Int64:
		enc, payload := encodeInts(v.I64)
		hdr[1] = byte(enc)
		return append(hdr, payload...)
	case Float64:
		hdr[1] = byte(EncPlainFloat)
		payload := make([]byte, 8*n)
		for i, f := range v.F64 {
			binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(f))
		}
		return append(hdr, payload...)
	default:
		enc, payload := encodeStrings(v.Str)
		hdr[1] = byte(enc)
		return append(hdr, payload...)
	}
}

// MaxSegmentRows bounds the rows of one segment. Most encodings bound their
// own count — the payload has to hold the values — but a constant n-bit block
// and a run-length page describe any number of rows in a few bytes, so a
// decoder allocating from the header alone needs a ceiling the writer also
// keeps (table.Create refuses a larger SegRows).
const MaxSegmentRows = 1 << 20

// segment is a page header read and checked against the payload behind it.
type segment struct {
	typ     Type
	enc     Encoding
	n       int
	payload []byte
}

// parseSegment reads [type u8][encoding u8][count u32] and refuses, before
// anything is allocated from it, an encoding that does not store the type and
// a count the payload cannot hold. The n-bit blocks, whose width sits in the
// payload, are checked by parseNbit.
func parseSegment(data []byte) (segment, error) {
	if len(data) < 6 {
		return segment{}, fmt.Errorf("column: segment too short (%d bytes)", len(data))
	}
	s := segment{Type(data[0]), Encoding(data[1]), int(binary.LittleEndian.Uint32(data[2:])), data[6:]}
	typ, perValue := Int64, 0
	switch s.enc {
	case EncPlainInt:
		perValue = 8
	case EncBitPackedInt:
	case EncRLEInt:
		if s.n > MaxSegmentRows {
			return segment{}, fmt.Errorf("column: %v of %d rows exceeds %d", s.enc, s.n, MaxSegmentRows)
		}
	case EncPlainFloat:
		typ, perValue = Float64, 8
	case EncPlainString:
		typ, perValue = String, 4
	case EncDictString:
		typ = String
	default:
		return segment{}, fmt.Errorf("column: unknown encoding %d", s.enc)
	}
	if s.typ != typ {
		return segment{}, fmt.Errorf("column: %v page claims type %v", s.enc, s.typ)
	}
	if len(s.payload) < perValue*s.n {
		return segment{}, fmt.Errorf("column: %v truncated: %d bytes for %d values", s.enc, len(s.payload), s.n)
	}
	return s, nil
}

// SegmentInfo returns the value type and row count an encoded segment
// declares, checked as far as the header allows; a reader compares them with
// what it expects of a page it may never decode.
func SegmentInfo(data []byte) (Type, int, error) {
	s, err := parseSegment(data)
	return s.typ, s.n, err
}

// DecodeSegment reverses EncodeSegment.
func DecodeSegment(data []byte) (*Vector, error) {
	s, err := parseSegment(data)
	if err != nil {
		return nil, err
	}
	return s.decode(nil, true)
}

// DecodeSegmentRows decodes only the values at rows, which must be strictly
// ascending and below the segment's count: DecodeSegment followed by Gather,
// without materialising the values in between. What it does not read it does
// not check — a dictionary page with a bad code at a row not asked for
// decodes here and fails in DecodeSegment.
func DecodeSegmentRows(data []byte, rows []int32) (*Vector, error) {
	s, err := parseSegment(data)
	if err != nil {
		return nil, err
	}
	prev := int32(-1)
	for _, r := range rows {
		if r <= prev {
			return nil, fmt.Errorf("column: rows not ascending at %d", r)
		}
		prev = r
	}
	if int(prev) >= s.n {
		return nil, fmt.Errorf("column: row %d of a %d-row segment", prev, s.n)
	}
	return s.decode(rows, false)
}

// decode materialises every value (all) or those at rows.
func (s segment) decode(rows []int32, all bool) (*Vector, error) {
	v := NewVector(s.typ)
	var err error
	switch s.enc {
	case EncPlainInt:
		if all {
			v.I64 = make([]int64, s.n)
			for i := range v.I64 {
				v.I64[i] = int64(binary.LittleEndian.Uint64(s.payload[8*i:]))
			}
			break
		}
		v.I64 = make([]int64, len(rows))
		for i, r := range rows {
			v.I64[i] = int64(binary.LittleEndian.Uint64(s.payload[8*int(r):]))
		}
	case EncPlainFloat:
		if all {
			v.F64 = make([]float64, s.n)
			for i := range v.F64 {
				v.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.payload[8*i:]))
			}
			break
		}
		v.F64 = make([]float64, len(rows))
		for i, r := range rows {
			v.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.payload[8*int(r):]))
		}
	case EncBitPackedInt:
		var b nbit
		if b, err = parseNbit(s.payload, s.n); err == nil {
			v.I64 = b.unpack(s.n, rows, all)
		}
	case EncRLEInt:
		v.I64, err = decodeRLE(s.payload, s.n, rows, all)
	case EncPlainString:
		v.Str, _, err = decodePlainStrings(s.payload, s.n, rows, all)
	default: // EncDictString: parseSegment admits nothing else
		v.Str, err = decodeDictStrings(s.payload, s.n, rows, all)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// --- integers ---

func encodeInts(vals []int64) (Encoding, []byte) {
	if len(vals) == 0 {
		return EncPlainInt, nil
	}
	minV, maxV := vals[0], vals[0]
	runs := 1
	for i, x := range vals {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
		if i > 0 && vals[i] != vals[i-1] {
			runs++
		}
	}
	// RLE wins when runs are long (16 bytes per run vs ~width/8 per value).
	if runs*16 < len(vals) {
		return EncRLEInt, encodeRLE(vals)
	}
	span := uint64(maxV) - uint64(minV)
	width := bits.Len64(span)
	// The packer accumulates into a 64-bit word with up to 7 residual bits,
	// so widths above 56 would overflow; such spans gain little anyway.
	if width > 56 {
		return EncPlainInt, plainInts(vals)
	}
	return EncBitPackedInt, packInts(vals, minV, width)
}

func plainInts(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, x := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// packInts stores [min i64][width u8][bitstream]. A width of 0 means every
// value equals min.
func packInts(vals []int64, minV int64, width int) []byte {
	out := make([]byte, 9, 9+(len(vals)*width+7)/8)
	binary.LittleEndian.PutUint64(out, uint64(minV))
	out[8] = byte(width)
	if width == 0 {
		return out
	}
	var acc uint64
	var nbits int
	for _, x := range vals {
		acc |= (uint64(x) - uint64(minV)) << nbits
		nbits += width
		for nbits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// nbit is a parsed n-bit block: every value is min plus width bits of stream.
type nbit struct {
	min    int64
	width  int
	stream []byte
}

// parseNbit reads a block of n values. The packer never writes a width above
// 56, which is also what lets one 64-bit load hold any value whole; a width of
// 0 stores nothing per value, so there the count is held to MaxSegmentRows.
func parseNbit(payload []byte, n int) (nbit, error) {
	if len(payload) < 9 {
		return nbit{}, fmt.Errorf("column: nbit-int truncated header")
	}
	b := nbit{int64(binary.LittleEndian.Uint64(payload)), int(payload[8]), payload[9:]}
	switch need := (n*b.width + 7) / 8; {
	case b.width > 56:
		return nbit{}, fmt.Errorf("column: nbit-int width %d", b.width)
	case b.width == 0 && n > MaxSegmentRows:
		return nbit{}, fmt.Errorf("column: constant nbit-int of %d rows exceeds %d", n, MaxSegmentRows)
	case len(b.stream) < need:
		return nbit{}, fmt.Errorf("column: nbit-int stream truncated: %d < %d", len(b.stream), need)
	}
	return b, nil
}

// unpack returns all n values, or those at rows. Value r starts at bit
// r×width, and with width ≤ 56 the eight bytes from that bit's byte hold all
// of it; the stream's last bytes are read through a zero-padded copy.
func (b nbit) unpack(n int, rows []int32, all bool) []int64 {
	if !all {
		n = len(rows)
	}
	vals := make([]int64, n)
	if b.width == 0 {
		for i := range vals {
			vals[i] = b.min
		}
		return vals
	}
	mask := uint64(1)<<b.width - 1
	for i := range vals {
		r := i
		if !all {
			r = int(rows[i])
		}
		bit := r * b.width
		var word uint64
		if off := bit >> 3; off+8 <= len(b.stream) {
			word = binary.LittleEndian.Uint64(b.stream[off:])
		} else {
			var tail [8]byte
			copy(tail[:], b.stream[off:])
			word = binary.LittleEndian.Uint64(tail[:])
		}
		vals[i] = int64(uint64(b.min) + word>>(bit&7)&mask)
	}
	return vals
}

func encodeRLE(vals []int64) []byte {
	var out []byte
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(vals[i]))
		out = binary.LittleEndian.AppendUint64(out, uint64(j-i))
		i = j
	}
	return out
}

// decodeRLE expands the runs, which must cover exactly n values, into all of
// them or into the values at rows; either way every run is checked.
func decodeRLE(payload []byte, n int, rows []int32, all bool) ([]int64, error) {
	count := len(rows)
	if all {
		count = n
	}
	vals := make([]int64, 0, count)
	pos := 0 // values the runs so far cover
	for off := 0; off+16 <= len(payload); off += 16 {
		v := int64(binary.LittleEndian.Uint64(payload[off:]))
		run := binary.LittleEndian.Uint64(payload[off+8:])
		if run == 0 || run > uint64(n-pos) {
			return nil, fmt.Errorf("column: rle run of %d overflows %d values", run, n)
		}
		pos += int(run)
		if all {
			for len(vals) < pos {
				vals = append(vals, v)
			}
			continue
		}
		for len(vals) < len(rows) && int(rows[len(vals)]) < pos {
			vals = append(vals, v)
		}
	}
	if pos != n {
		return nil, fmt.Errorf("column: rle decoded %d of %d values", pos, n)
	}
	return vals, nil
}

// --- strings ---

func encodePlainStrings(vals []string) []byte {
	var out []byte
	for _, s := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// decodePlainStrings walks n length-prefixed values, all of which must fit
// the payload, and keeps every one (all) or those at rows — only a kept value
// is copied out of the page. It also returns the offset just past them.
func decodePlainStrings(payload []byte, n int, rows []int32, all bool) ([]string, int, error) {
	count := len(rows)
	if all {
		count = n
	}
	vals := make([]string, 0, count)
	off := 0
	for i := 0; i < n; i++ {
		if off+4 > len(payload) {
			return nil, 0, fmt.Errorf("column: plain-string truncated at value %d", i)
		}
		l := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if l > len(payload)-off {
			return nil, 0, fmt.Errorf("column: plain-string value %d overflows payload", i)
		}
		if all || (len(vals) < len(rows) && int(rows[len(vals)]) == i) {
			vals = append(vals, string(payload[off:off+l]))
		}
		off += l
	}
	return vals, off, nil
}

// encodeStrings dictionary-encodes when the dictionary pays for itself.
func encodeStrings(vals []string) (Encoding, []byte) {
	if len(vals) == 0 {
		return EncPlainString, nil
	}
	dict := make(map[string]int)
	for _, s := range vals {
		dict[s] = 0
	}
	// A dictionary helps when cardinality is well below the value count.
	if len(dict)*2 >= len(vals) {
		return EncPlainString, encodePlainStrings(vals)
	}
	words := make([]string, 0, len(dict))
	for s := range dict {
		words = append(words, s)
	}
	sort.Strings(words)
	for i, s := range words {
		dict[s] = i
	}
	width := bits.Len64(uint64(len(words) - 1))
	codes := make([]int64, len(vals))
	for i, s := range vals {
		codes[i] = int64(dict[s])
	}
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(words)))
	out = append(out, encodePlainStrings(words)...)
	out = append(out, packInts(codes, 0, width)...)
	return EncDictString, out
}

// decodeDictStrings reads [words u32][words, length-prefixed][n-bit codes].
func decodeDictStrings(payload []byte, n int, rows []int32, all bool) ([]string, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("column: dict-string truncated")
	}
	nw := int(binary.LittleEndian.Uint32(payload))
	if len(payload)-4 < 4*nw {
		return nil, fmt.Errorf("column: dict-string truncated: %d bytes for %d words", len(payload)-4, nw)
	}
	words, off, err := decodePlainStrings(payload[4:], nw, nil, true)
	if err != nil {
		return nil, fmt.Errorf("column: dict words: %w", err)
	}
	b, err := parseNbit(payload[4+off:], n)
	if err != nil {
		return nil, err
	}
	codes := b.unpack(n, rows, all)
	vals := make([]string, len(codes))
	for i, c := range codes {
		if c < 0 || int(c) >= nw {
			return nil, fmt.Errorf("column: dict code %d out of range %d", c, nw)
		}
		vals[i] = words[c]
	}
	return vals, nil
}
