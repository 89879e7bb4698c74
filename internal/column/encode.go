package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
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
	// EncDecimalFloat stores floats that are exact decimals as the n-bit
	// integers k = v·10^scale: [scale u8][n-bit block]. It is a stored form
	// only: Compact writes it, EncodeSegment never does (see decimal.go).
	EncDecimalFloat
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
	case EncDecimalFloat:
		return "decimal-float"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// EncodeSegment serializes v, choosing an encoding from its statistics.
// The layout is [type u8][encoding u8][count u32][payload].
func EncodeSegment(v *Vector) []byte {
	out, _, _ := encodeSegment(v)
	return out
}

// EncodeSegmentZone is EncodeSegment and BuildZoneMap of v in one: a
// dictionary page's string bounds are the first and last of the words the
// encoder has already sorted, not a compare per value.
func EncodeSegmentZone(v *Vector) ([]byte, ZoneMap) {
	out, lo, hi := encodeSegment(v)
	if v.Typ != String || Encoding(out[1]) != EncDictString {
		return out, BuildZoneMap(v)
	}
	return out, ZoneMap{Typ: String, MinStr: truncMin(lo), MaxStr: truncMax(hi)}
}

// encodeSegment is EncodeSegment, also returning a dictionary page's least
// and greatest words.
func encodeSegment(v *Vector) (out []byte, lo, hi string) {
	n := v.Len()
	var enc Encoding
	switch v.Typ {
	case Int64:
		enc, out = encodeInts(v.I64)
	case Float64:
		enc, out = EncPlainFloat, newPage(8*n)
		for _, f := range v.F64 {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		}
	default:
		enc, out, lo, hi = encodeStrings(v.Str)
	}
	out[0] = byte(v.Typ)
	out[1] = byte(enc)
	binary.LittleEndian.PutUint32(out[2:], uint32(n))
	return out, lo, hi
}

// segmentHeader is the length of a page's [type][encoding][count] header.
// Every encoder returns its payload behind that many bytes it leaves for
// EncodeSegment to fill, in one buffer sized up front (newPage).
const segmentHeader = 6

// newPage returns the header room of a page whose payload is n bytes, with
// the capacity for that payload.
func newPage(n int) []byte {
	return make([]byte, segmentHeader, segmentHeader+n)
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
// payload, are checked by parseNbit (and a decimal's scale by parseDecimal).
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
	case EncDecimalFloat:
		typ = Float64
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
	case EncDecimalFloat:
		var d decimal
		if d, err = parseDecimal(s.payload, s.n); err == nil {
			v.F64 = d.floats(s.n, rows, all)
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
		return EncPlainInt, newPage(0)
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
		return EncRLEInt, encodeRLE(newPage(16*runs), vals)
	}
	span := uint64(maxV) - uint64(minV)
	width := bits.Len64(span)
	// The packer accumulates into a 64-bit word with up to 7 residual bits,
	// so widths above 56 would overflow; such spans gain little anyway.
	if width > 56 {
		return EncPlainInt, plainInts(newPage(8*len(vals)), vals)
	}
	return EncBitPackedInt, packInts(newPage(packedLen(len(vals), width)), vals, minV, width)
}

func plainInts(dst []byte, vals []int64) []byte {
	for _, x := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// packedLen is the length of packInts' block of n values of width bits.
func packedLen(n, width int) int { return 9 + (n*width+7)/8 }

// packInts stores [min i64][width u8][bitstream]. A width of 0 means every
// value equals min.
func packInts(dst []byte, vals []int64, minV int64, width int) []byte {
	out := binary.LittleEndian.AppendUint64(dst, uint64(minV))
	out = append(out, byte(width))
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

// unpack returns all n values, or those at rows.
func (b nbit) unpack(n int, rows []int32, all bool) []int64 {
	if !all {
		vals := make([]int64, len(rows))
		for i, r := range rows {
			vals[i] = b.at(int(r))
		}
		return vals
	}
	vals := make([]int64, n)
	unpackTo(b, vals, 0, 1)
	return vals
}

// unpackTo is the n-bit kernel: it stores values first, first+1, … of the
// block in dst, each converted to T and divided by div unless div is 1 (a
// decimal page's 10^scale; every other caller passes 1). At a width of at
// most 19 one 64-bit load shifted to its value's bit holds ⌊57/width⌋ whole
// values, which are taken from it by mask and shift; a wider value takes a
// load of its own at a running bit offset. Only a value whose load would run
// past the stream — in its last eight bytes — goes through at.
func unpackTo[T int32 | int64 | float64](b nbit, dst []T, first int, div T) {
	scaled := div != 1
	if b.width == 0 {
		x := T(b.min)
		if scaled {
			x /= div
		}
		for i := range dst {
			dst[i] = x
		}
		return
	}
	s, base, w := b.stream, uint64(b.min), uint(b.width)
	mask := uint64(1)<<w - 1
	bit, i := uint(first)*w, 0
	if w <= 19 {
		k := int(57 / w)
		for ; i+k <= len(dst) && bit>>3+8 <= uint(len(s)); i += k {
			word := binary.LittleEndian.Uint64(s[bit>>3:bit>>3+8]) >> (bit & 7)
			out := dst[i : i+k]
			for j := range out {
				out[j] = T(int64(base + word&mask))
				word >>= w & 63
			}
			if scaled {
				for j := range out {
					out[j] /= div
				}
			}
			bit += uint(k) * w
		}
	}
	// The division has a loop of its own, so that it overlaps the unpack
	// and the unscaled loop has no branch.
	if scaled {
		for ; i < len(dst) && bit>>3+8 <= uint(len(s)); i++ {
			word := binary.LittleEndian.Uint64(s[bit>>3 : bit>>3+8])
			dst[i] = T(int64(base+word>>(bit&7)&mask)) / div
			bit += w
		}
	} else {
		for ; i < len(dst) && bit>>3+8 <= uint(len(s)); i++ {
			word := binary.LittleEndian.Uint64(s[bit>>3 : bit>>3+8])
			dst[i] = T(int64(base + word>>(bit&7)&mask))
			bit += w
		}
	}
	for ; i < len(dst); i++ {
		x := T(b.at(first + i))
		if scaled {
			x /= div
		}
		dst[i] = x
	}
}

// at returns value r, which starts at bit r×width: with width ≤ 56 the eight
// bytes from that bit's byte hold all of it. The stream's last bytes are read
// through a zero-padded copy.
func (b nbit) at(r int) int64 {
	bit := r * b.width
	off := bit >> 3
	var word uint64
	if off+8 <= len(b.stream) {
		word = binary.LittleEndian.Uint64(b.stream[off:])
	} else {
		word = b.tail(off)
	}
	return int64(uint64(b.min) + word>>(bit&7)&(1<<b.width-1))
}

// tail is the little-endian word of the stream from byte off on, zero past
// its end.
func (b nbit) tail(off int) uint64 {
	var tail [8]byte
	copy(tail[:], b.stream[off:])
	return binary.LittleEndian.Uint64(tail[:])
}

func encodeRLE(out []byte, vals []int64) []byte {
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

// encodePlainStrings returns the plain-string page of vals.
func encodePlainStrings(vals []string) []byte {
	out := newPage(plainStringsLen(vals))
	for _, s := range vals {
		out = appendString(out, s)
	}
	return out
}

// appendString appends s length-prefixed, as a plain-string payload and a
// dictionary's words store it.
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// plainStringsLen is the length of encodePlainStrings' payload for vals.
func plainStringsLen(vals []string) int {
	n := 4 * len(vals)
	for _, s := range vals {
		n += len(s)
	}
	return n
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

// decodeWords reads a dictionary's n length-prefixed words, checked as
// decodePlainStrings checks them, as substrings of one copy of the words:
// two allocations a page whatever the word count. A value that outlives the
// page keeps all of its words alive, a few bytes each. It also returns the
// offset just past them.
func decodeWords(payload []byte, n int) ([]string, int, error) {
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
		off += l
	}
	block := string(payload[:off])
	words := make([]string, n)
	at := 0
	for i := range words {
		l := int(binary.LittleEndian.Uint32(payload[at:]))
		words[i] = block[at+4 : at+4+l]
		at += 4 + l
	}
	return words, off, nil
}

// encodeStrings dictionary-encodes when the dictionary pays for itself: the
// distinct words sorted, then each value's word's rank in n-bit codes.
//
// Each value finds its word's first-seen id with one probe of an
// open-addressing table of first rows (the fixed hash HashTable uses, so the
// table's layout is a function of the page alone), or none when it repeats
// the value before it. The words' first rows are sorted once, by word, and
// the ids become ranks. A dictionary page also returns its least and
// greatest words.
func encodeStrings(vals []string) (enc Encoding, page []byte, lo, hi string) {
	n := len(vals)
	if n == 0 {
		return EncPlainString, newPage(0), "", ""
	}
	// A dictionary helps when cardinality is well below the value count.
	// The distinct count only grows, so once it reaches half the values the
	// page is plain whatever the rest hold: stop counting there. The table
	// then never holds more than (n+1)/2 words, at most half full.
	codes := make([]int64, n) // first-seen ids, then ranks
	slots := make([]uint64, slotsFor((n+1)/2))
	mask := uint32(len(slots) - 1)
	words := 0
	for i, s := range vals {
		if i > 0 && s == vals[i-1] {
			codes[i] = codes[i-1]
			continue
		}
		tag := uint32(hashString(hashSeed, s) >> 32)
		for j := tag & mask; ; j = (j + 1) & mask {
			slot := slots[j]
			if slot == 0 {
				if words++; words*2 >= n {
					return EncPlainString, encodePlainStrings(vals), "", ""
				}
				slots[j] = uint64(tag)<<32 | uint64(i+1)
				codes[i] = int64(words - 1)
				break
			}
			if row := uint32(slot) - 1; uint32(slot>>32) == tag && vals[row] == s {
				codes[i] = codes[row]
				break
			}
		}
	}
	order := make([]int32, 0, words) // each word's first row, by id
	for i, id := range codes {
		if int(id) == len(order) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(vals[a], vals[b]) })
	rank := slots[:words] // the table is done with: id → rank
	wordBytes := 0
	for r, row := range order {
		rank[codes[row]] = uint64(r)
		wordBytes += 4 + len(vals[row])
	}
	for i, id := range codes {
		codes[i] = int64(rank[id])
	}
	width := bits.Len64(uint64(words - 1))
	out := newPage(4 + wordBytes + packedLen(n, width))
	out = binary.LittleEndian.AppendUint32(out, uint32(words))
	for _, row := range order {
		out = appendString(out, vals[row])
	}
	return EncDictString, packInts(out, codes, 0, width), vals[order[0]], vals[order[words-1]]
}

// parseDict reads [words u32][words, length-prefixed][n-bit codes] into the
// words and the code block, unchecked against the word count.
func parseDict(payload []byte, n int) ([]string, nbit, error) {
	if len(payload) < 4 {
		return nil, nbit{}, fmt.Errorf("column: dict-string truncated")
	}
	nw := int(binary.LittleEndian.Uint32(payload))
	if len(payload)-4 < 4*nw {
		return nil, nbit{}, fmt.Errorf("column: dict-string truncated: %d bytes for %d words", len(payload)-4, nw)
	}
	words, off, err := decodeWords(payload[4:], nw)
	if err != nil {
		return nil, nbit{}, fmt.Errorf("column: dict words: %w", err)
	}
	b, err := parseNbit(payload[4+off:], n)
	return words, b, err
}

// decodeDictStrings materialises every value of a dict-string page (all) or
// those at rows.
func decodeDictStrings(payload []byte, n int, rows []int32, all bool) ([]string, error) {
	words, b, err := parseDict(payload, n)
	if err != nil {
		return nil, err
	}
	if all {
		vals := make([]string, n)
		var codes [256]int64
		for lo := 0; lo < n; lo += len(codes) {
			chunk := codes[:min(len(codes), n-lo)]
			unpackTo(b, chunk, lo, 1)
			for i, c := range chunk {
				if vals[lo+i], err = word(words, c); err != nil {
					return nil, err
				}
			}
		}
		return vals, nil
	}
	vals := make([]string, len(rows))
	for i, r := range rows {
		if vals[i], err = word(words, b.at(int(r))); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// word is the dictionary word a code names.
func word(words []string, c int64) (string, error) {
	if c < 0 || c >= int64(len(words)) {
		return "", fmt.Errorf("column: dict code %d out of range %d", c, len(words))
	}
	return words[c], nil
}

// Dict is a dictionary page read as it is stored: its sorted distinct words
// and, per row, the code of the row's word — its rank among them. A predicate
// of the value alone can be decided once per word and looked up per row.
type Dict struct {
	Words []string
	Codes []int32
}

// Open reads data into d when it is a dict-string page, unpacking the codes
// into d.Codes' storage (grown when it is short) and checking every one
// against the word count, as DecodeSegment does. It reports false, and
// leaves d as it was, for a page of any other encoding.
func (d *Dict) Open(data []byte) (bool, error) {
	s, err := parseSegment(data)
	if err != nil || s.enc != EncDictString {
		return false, err
	}
	words, b, err := parseDict(s.payload, s.n)
	if err != nil {
		return false, err
	}
	codes := slices.Grow(d.Codes[:0], s.n)[:s.n]
	if nw := int64(len(words)); b.min >= 0 && b.min < nw && 1<<b.width-1 < nw-b.min {
		// Every code is min plus width bits, so the block's header proves
		// them all below the word count: the encoder's own pages.
		unpackTo(b, codes, 0, 1)
	} else {
		// The codes are checked once, by their maximum: the loop has no
		// branch.
		top := uint64(0)
		for i := range codes {
			c := b.at(i)
			top = max(top, uint64(c))
			codes[i] = int32(c)
		}
		if top >= uint64(len(words)) {
			for i := range codes {
				if _, err := word(words, b.at(i)); err != nil {
					return false, err
				}
			}
		}
	}
	d.Words, d.Codes = words, codes
	return true, nil
}

// Values returns the words of the given rows, every row when rows is nil:
// DecodeSegment or DecodeSegmentRows of the page d was opened on.
func (d *Dict) Values(rows []int32) *Vector {
	var vals []string
	if rows == nil {
		vals = make([]string, len(d.Codes))
		for i, c := range d.Codes {
			vals[i] = d.Words[c]
		}
	} else {
		vals = make([]string, len(rows))
		for i, r := range rows {
			vals[i] = d.Words[d.Codes[r]]
		}
	}
	return &Vector{Typ: String, Str: vals}
}
