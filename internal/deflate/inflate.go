package deflate

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"slices"
)

// The inflater below is an RFC 1951 decoder over a stream that is already in
// memory. compress/flate's reader is written for an io.Reader: it pulls one
// byte per ReadByte interface call, keeps a 32 KB window it copies out of,
// and builds its Huffman link tables afresh for every block. Here the input
// is a slice read 8 bytes at a time, the output slice is its own window, and
// the tables live in the pooled inflater.
//
// It accepts exactly the streams compress/flate accepts (DESIGN.md "Page
// codec"; FuzzInflate holds it to that): complete codes, plus the empty code
// and the single code of length 1; HLIT ≤ 286 and HDIST ≤ 30; no lit/len
// symbol 286–287 or distance symbol 30–31 (only the fixed code has them), no
// distance beyond the bytes written so far, and a stored block's NLEN must be
// the complement of its LEN. Bytes after the final block are ignored. A
// stream that ends early fails with io.ErrUnexpectedEOF, a malformed one
// with flate.CorruptInputError.

const (
	maxLitSyms  = 286 // lit/len symbols a dynamic block may declare (HLIT + 257)
	maxDistSyms = 30  // distance symbols a dynamic block may declare (HDIST + 1)
	numCLSyms   = 19  // code-length alphabet

	litTableBits  = 10 // primary lookup bits; longer codes go through a subtable
	distTableBits = 8
	clTableBits   = 7 // code-length codes are at most 7 bits: no subtables
)

// A table entry is one of
//
//	sym<<16 | codeLen          a symbol, with the length of its code (1–15)
//	off<<16 | link | subBits   a subtable of 1<<subBits entries at t[off:]
//	0                          no code has these bits (empty or single codes)
const (
	entryLen  = 0x1f
	entryLink = 0x100
)

// codeOrder is the order in which a dynamic block lists the code-length
// code's own lengths (RFC 1951 §3.2.7).
var codeOrder = [numCLSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// Base values and extra-bit counts of length symbols 257–285 and distance
// symbols 0–29 (RFC 1951 §3.2.5).
var (
	lenBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// The fixed code (block type 01) is the same for every stream: its tables are
// built once. Its lit/len code has symbols 286 and 287 and its distance code
// 30 and 31, which decode and are then refused, as compress/flate does.
var fixedLit, fixedDist = fixedTables()

func fixedTables() (lit, dist []uint32) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit, _ = buildTable(nil, lens[:], litTableBits)
	for i := range 32 {
		lens[i] = 5
	}
	dist, _ = buildTable(nil, lens[:32], distTableBits)
	return lit, dist
}

// buildTable makes t (reusing its capacity) the lookup table, with a primary
// table of pb bits, of the canonical Huffman code whose code lengths are
// lens. It reports false for a code compress/flate refuses: one that is
// over-subscribed, or incomplete other than the empty code and the single
// code of length 1.
func buildTable(t []uint32, lens []uint8, pb uint) ([]uint32, bool) {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := 15
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	// next[l] is the first canonical code of length l; code ends as the
	// number of maxLen-bit strings the code covers (Kraft's sum, scaled).
	var next [16]int
	code := 0
	for l := 1; l <= maxLen; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if maxLen > 0 && code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return t, false
	}

	first := next
	size := 1 << pb
	t = slices.Grow(t[:0], size)[:size]
	clear(t)
	// Codes no longer than pb fill every primary entry their bits prefix.
	// A longer code's low pb bits pick its primary entry: the first pass
	// records there the longest code sharing it, the second turns it into
	// the link to a subtable that long and fills the subtable.
	long := false
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		rev := uint32(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		if uint(l) <= pb {
			for i := rev; i < uint32(size); i += 1 << l {
				t[i] = uint32(sym)<<16 | uint32(l)
			}
			continue
		}
		long = true
		p := rev & uint32(size-1)
		t[p] = max(t[p], uint32(l))
	}
	if !long {
		return t, true
	}
	// Second pass over the long codes, re-deriving each code as above (a
	// length's codes are numbered apart from every other length's).
	next = first
	for sym, l := range lens {
		if uint(l) <= pb {
			continue
		}
		rev := uint32(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		p := rev & uint32(size-1)
		if t[p]&entryLink == 0 {
			sub := t[p] - uint32(pb)
			t[p] = uint32(len(t))<<16 | entryLink | sub
			t = append(t, make([]uint32, 1<<sub)...)
		}
		off, sub := t[p]>>16, t[p]&entryLen
		step := uint32(1) << (uint(l) - pb)
		for i := rev >> pb; i < 1<<sub; i += step {
			t[off+i] = uint32(sym)<<16 | uint32(l)
		}
	}
	return t, true
}

// inflater is the pooled state of one Decompress: the input and its bit
// buffer, the output, and the tables of the current dynamic block's codes.
type inflater struct {
	in   []byte
	pos  int    // next input byte to load into bits
	bits uint64 // the next n input bits, LSB first; the bits above them are
	n    uint   // either 0 or the input's next bits, never anything else

	out           []byte
	lit, dist, cl []uint32
	lens          [maxLitSyms + maxDistSyms]uint8
}

func (f *inflater) refill() {
	f.pos, f.bits, f.n = refill(f.in, f.pos, f.bits, f.n)
}

// refill tops the bit buffer bb of n bits, read up to in[pos], up to at
// least 56 bits, or to the end of the input. Away from the end it loads 8
// bytes at once and keeps the whole bytes that fit; within the last 8 it
// loads a byte at a time.
func refill(in []byte, pos int, bb uint64, n uint) (int, uint64, uint) {
	if pos+8 <= len(in) {
		bb |= binary.LittleEndian.Uint64(in[pos:]) << n
		return pos + int(63-n)>>3, bb, n | 56
	}
	for n < 56 && pos < len(in) {
		bb |= uint64(in[pos]) << n
		pos++
		n += 8
	}
	return pos, bb, n
}

// take consumes the next k ≤ 16 bits.
func (f *inflater) take(k uint) (uint32, error) {
	if f.n < k {
		if f.refill(); f.n < k {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := uint32(f.bits & (1<<k - 1))
	f.bits >>= k
	f.n -= k
	return v, nil
}

// corrupt is the error for a malformed stream, at the input offset reached.
func (f *inflater) corrupt() error {
	return flate.CorruptInputError(int64(f.pos - int(f.n>>3)))
}

// inflate decodes the stream in src into f.out, which aliases the pooled
// scratch.
func (f *inflater) inflate(src []byte) error {
	f.in, f.pos, f.bits, f.n = src, 0, 0, 0
	f.out = f.out[:0]
	for {
		hdr, err := f.take(3)
		if err != nil {
			return err
		}
		switch hdr >> 1 {
		case 0:
			err = f.stored()
		case 1:
			err = f.huffman(fixedLit, fixedDist)
		case 2:
			if err = f.readCodes(); err == nil {
				err = f.huffman(f.lit, f.dist)
			}
		default:
			err = f.corrupt()
		}
		if err != nil || hdr&1 == 1 {
			return err
		}
	}
}

// stored copies a stored block (RFC 1951 §3.2.4): the bits up to the next
// byte boundary are dropped and LEN bytes follow LEN and NLEN.
func (f *inflater) stored() error {
	f.pos -= int(f.n >> 3) // give back the whole bytes still buffered
	f.bits, f.n = 0, 0
	in := f.in[f.pos:]
	if len(in) < 4 {
		return io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint16(in)
	if binary.LittleEndian.Uint16(in[2:]) != ^n {
		f.pos += 4
		return f.corrupt()
	}
	if len(in)-4 < int(n) {
		return io.ErrUnexpectedEOF
	}
	f.out = append(f.out, in[4:4+int(n)]...)
	f.pos += 4 + int(n)
	return nil
}

// clSym decodes one symbol of the code-length code, whose codes (at most 7
// bits) all fit its one-level table.
func (f *inflater) clSym() (uint32, error) {
	if f.n < clTableBits {
		f.refill()
	}
	e := f.cl[f.bits&(1<<clTableBits-1)]
	l := uint(e & entryLen)
	if l == 0 {
		return 0, f.corrupt()
	}
	if l > f.n {
		return 0, io.ErrUnexpectedEOF
	}
	f.bits >>= l
	f.n -= l
	return e >> 16, nil
}

// readCodes reads a dynamic block's header (RFC 1951 §3.2.7) into f.lit and
// f.dist.
func (f *inflater) readCodes() error {
	v, err := f.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(v&0x1f)+257, int(v>>5&0x1f)+1, int(v>>10)+4
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return f.corrupt()
	}
	var clLens [numCLSyms]uint8
	for _, sym := range codeOrder[:nclen] {
		l, err := f.take(3)
		if err != nil {
			return err
		}
		clLens[sym] = uint8(l)
	}
	var ok bool
	if f.cl, ok = buildTable(f.cl, clLens[:], clTableBits); !ok {
		return f.corrupt()
	}

	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		sym, err := f.clSym()
		if err != nil {
			return err
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 and 18 write 3–10
		// and 11–138 zeros.
		var rep, extra uint32
		var l uint8
		switch sym {
		case 16:
			if i == 0 {
				return f.corrupt()
			}
			rep, extra, l = 3, 2, lens[i-1]
		case 17:
			rep, extra = 3, 3
		default:
			rep, extra = 11, 7
		}
		x, err := f.take(uint(extra))
		if err != nil {
			return err
		}
		rep += x
		if i+int(rep) > len(lens) {
			return f.corrupt()
		}
		for range rep {
			lens[i] = l
			i++
		}
	}
	if f.lit, ok = buildTable(f.lit, lens[:nlit], litTableBits); !ok {
		return f.corrupt()
	}
	if f.dist, ok = buildTable(f.dist, lens[nlit:], distTableBits); !ok {
		return f.corrupt()
	}
	return nil
}

// huffman decodes one Huffman-coded block with the lit/len table lit and
// the distance table dist. The bit buffer and the output live in locals for
// the loop and are stored back once it ends.
func (f *inflater) huffman(lit, dist []uint32) error {
	in, pos, bb, n, out := f.in, f.pos, f.bits, f.n, f.out
	// The primary tables as arrays: indexing them by masked bits needs no
	// bounds check.
	litp := (*[1 << litTableBits]uint32)(lit)
	distp := (*[1 << distTableBits]uint32)(dist)
	var err error
	for {
		// A refill leaves at least 56 bits, enough for several literals
		// (a lit/len code is at most 15 bits) and, refilled again below
		// 33, for a length's extra bits and a whole distance (5+15+13).
		// After a refill, fewer bits than that means the input is ending,
		// and every field checks what it takes against n.
		if n < 15 {
			pos, bb, n = refill(in, pos, bb, n)
		}
		e := litp[bb&(1<<litTableBits-1)]
		if e&entryLink != 0 {
			e = lit[e>>16+uint32(bb>>litTableBits)&(1<<(e&entryLen)-1)]
		}
		l := uint(e & entryLen)
		if l == 0 || l > n {
			err = errAt(l)
			break
		}
		bb >>= l
		n -= l
		sym := e >> 16
		if sym < 256 {
			out = append(out, byte(sym))
			continue
		}
		if sym == 256 {
			break
		}
		sym -= 257
		if sym >= uint32(len(lenBase)) {
			err = errCorrupt
			break
		}
		if n < 33 {
			pos, bb, n = refill(in, pos, bb, n)
		}
		length := int(lenBase[sym])
		if x := uint(lenExtra[sym]); x > 0 {
			if x > n {
				err = io.ErrUnexpectedEOF
				break
			}
			length += int(bb & (1<<x - 1))
			bb >>= x
			n -= x
		}

		e = distp[bb&(1<<distTableBits-1)]
		if e&entryLink != 0 {
			e = dist[e>>16+uint32(bb>>distTableBits)&(1<<(e&entryLen)-1)]
		}
		l = uint(e & entryLen)
		if l == 0 || l > n {
			err = errAt(l)
			break
		}
		bb >>= l
		n -= l
		sym = e >> 16
		if sym >= uint32(len(distBase)) {
			err = errCorrupt
			break
		}
		d := int(distBase[sym])
		if x := uint(distExtra[sym]); x > 0 {
			if x > n {
				err = io.ErrUnexpectedEOF
				break
			}
			d += int(bb & (1<<x - 1))
			bb >>= x
			n -= x
		}
		if d > len(out) {
			err = errCorrupt
			break
		}

		// Copy length bytes from d back. From 8 back or more, 8 bytes at a
		// time: every word read was written before it is read, and the
		// last word may run up to 7 bytes past the match into spare
		// capacity, which the next symbols overwrite. Nearer, each copy
		// doubles the span it reads from.
		i, end := len(out), len(out)+length
		out = slices.Grow(out, length+8)[:end]
		from := i - d
		if d >= 8 {
			w := out[:end+7]
			for ; i < end; i, from = i+8, from+8 {
				binary.LittleEndian.PutUint64(w[i:], binary.LittleEndian.Uint64(w[from:]))
			}
			continue
		}
		for i < end {
			i += copy(out[i:], out[from:i])
		}
	}
	f.pos, f.bits, f.n, f.out = pos, bb, n, out
	if err == errCorrupt {
		return f.corrupt()
	}
	return err
}

// errCorrupt marks a malformed stream inside huffman, which reports it with
// its offset once the bit buffer is stored back.
var errCorrupt = errors.New("deflate: corrupt input")

// errAt is the error for a table entry of code length l that could not be
// consumed: no code at all, or a code longer than the bits left.
func errAt(l uint) error {
	if l == 0 {
		return errCorrupt
	}
	return io.ErrUnexpectedEOF
}
