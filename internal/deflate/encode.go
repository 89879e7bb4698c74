package deflate

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The encoder below is an RFC 1951 compressor over a page that is already in
// memory. compress/flate's writer is built for a stream of any length: it
// keeps a 64 KB window and 640 KB of hash tables that every Reset clears,
// emits a block every 16 K symbols, and buffers its output through an
// io.Writer. A page is one to a few dozen KB and is all there at once, so
// here the page is the window, the hash table is sized to it, and the whole
// page is one final block.
//
// The parse is greedy: at each position the hash of the next five bytes
// names the most recent earlier position with the same hash, and a chain of
// up to maxChain earlier ones links back from it; the longest match of at
// least minMatch bytes within the last 32 KiB wins, and a match of niceMatch
// bytes or more ends the search. Positions inside a match are indexed only
// when it is at most maxInsert bytes long (zlib's max_insert_length): a long
// match is a repeat, and its interior adds chain to walk, not matches. Its
// last position is indexed all the same, so a run of one byte goes on at
// distance 1 instead of the match's length. The
// block is then written with whichever of the three block types (stored,
// fixed Huffman, dynamic Huffman) takes the fewest bits, counted exactly
// from the symbol frequencies.
const (
	minMatch  = 4
	maxMatch  = 258
	maxDist   = 1 << 15
	maxChain  = 16
	niceMatch = 32
	maxInsert = 16

	minHashBits = 9
	maxHashBits = 15

	maxStored = 65535 // bytes in one stored block

	litLenSyms = 286 // lit/len symbols a block may use (0–285)
	distSyms   = 30

	maxCodeBits = 15 // lit/len and distance codes
	maxCLBits   = 7  // the code-length code
)

// A token is a literal byte (below 1<<16) or a match: distance<<16 |
// (length − 3).
const matchShift = 16

// lenSym maps a match length − 3 to its index in lenBase (symbol − 257);
// distSymSmall maps a distance − 1 below 256 to its distance symbol and
// distSymLarge the rest by (distance − 1) >> 7.
var lenSym, distSymSmall, distSymLarge = symbolTables()

func symbolTables() (ls [256]uint8, ds, dl [256]uint8) {
	for sym := range lenBase {
		for l := int(lenBase[sym]); l < int(lenBase[sym])+1<<lenExtra[sym] && l <= maxMatch; l++ {
			ls[l-3] = uint8(sym)
		}
	}
	ls[maxMatch-3] = uint8(len(lenBase) - 1) // 258 has its own symbol, 285
	for sym := range distBase {
		for d := int(distBase[sym]); d < int(distBase[sym])+1<<distExtra[sym]; d++ {
			if d-1 < 256 {
				ds[d-1] = uint8(sym)
			} else {
				dl[(d-1)>>7] = uint8(sym)
			}
		}
	}
	return ls, ds, dl
}

func distSym(d uint32) uint32 {
	if d <= 256 {
		return uint32(distSymSmall[d-1])
	}
	return uint32(distSymLarge[(d-1)>>7])
}

// huffCode is a canonical Huffman code: each symbol's length, and its code
// bit-reversed so it can be written LSB first.
type huffCode struct {
	code []uint16
	len  []uint8
}

// The fixed code (block type 01): lit/len lengths 8, 9, 7, 8 by range and
// every distance 5 bits.
var fixedLitCode, fixedDistCode = fixedCodes()

func fixedCodes() (lit, dist huffCode) {
	lit = huffCode{make([]uint16, 288), make([]uint8, 288)}
	for i := range lit.len {
		switch {
		case i < 144:
			lit.len[i] = 8
		case i < 256:
			lit.len[i] = 9
		case i < 280:
			lit.len[i] = 7
		default:
			lit.len[i] = 8
		}
	}
	lit.assign()
	dist = huffCode{make([]uint16, 32), make([]uint8, 32)}
	for i := range dist.len {
		dist.len[i] = 5
	}
	dist.assign()
	return lit, dist
}

// assign numbers the code canonically from its lengths (RFC 1951 §3.2.2).
func (c *huffCode) assign() {
	var count [maxCodeBits + 1]uint16
	for _, l := range c.len {
		count[l]++
	}
	count[0] = 0
	var next [maxCodeBits + 1]uint16
	code := uint16(0)
	for l := 1; l <= maxCodeBits; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for sym, l := range c.len {
		if l != 0 {
			c.code[sym] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// cost is the number of bits the symbols of freq take under c, extra bits
// not included.
func (c *huffCode) cost(freq []uint32) int {
	n := 0
	for sym, f := range freq {
		n += int(f) * int(c.len[sym])
	}
	return n
}

// huffScratch is build's working space, kept by the pooled encoder: the
// used symbols as freq<<16 | sym, and their frequencies in that order, which
// minimumRedundancy turns into code lengths.
type huffScratch struct {
	keys []uint64
	lens []uint32
}

// build makes c the length-limited Huffman code of freq: Moffat and
// Katajainen's in-place minimum-redundancy lengths, then, if any exceeds
// limit, the Kraft sum repaired by lengthening the shortest codes that
// still leave room. Fewer than two used symbols get a second (symbol 0 or 1)
// so that every code written is complete: the length-1 single code is legal,
// but not every decoder takes it. The symbols are ordered by frequency, then
// by symbol: one integer sort of their keys.
func (c *huffCode) build(freq []uint32, limit int, s *huffScratch) {
	c.code = slices.Grow(c.code[:0], len(freq))[:len(freq)]
	c.len = slices.Grow(c.len[:0], len(freq))[:len(freq)]
	clear(c.len)
	keys := s.keys[:0]
	for sym, f := range freq {
		if f != 0 {
			keys = append(keys, uint64(f)<<16|uint64(sym))
		}
	}
	for sym := 0; len(keys) < 2; sym++ {
		if freq[sym] == 0 {
			keys = append(keys, 1<<16|uint64(sym))
		}
	}
	slices.Sort(keys)
	lens := s.lens[:0]
	for _, k := range keys {
		lens = append(lens, uint32(k>>16))
	}
	s.keys, s.lens = keys, lens
	minimumRedundancy(lens)

	var count [32]int
	for _, l := range lens {
		count[min(int(l), limit)]++
	}
	// Clamping to limit over-subscribes the code; each step below frees one
	// limit-length slot by splitting a shorter leaf into two longer ones.
	total := 0
	for l := limit; l > 0; l-- {
		total += count[l] << (limit - l)
	}
	for total > 1<<limit {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] != 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
		total--
	}
	// The most frequent symbols (the end of keys) take the shortest codes.
	j := len(keys)
	for l := 1; l <= limit; l++ {
		for range count[l] {
			j--
			c.len[uint16(keys[j])] = uint8(l)
		}
	}
	c.assign()
}

// minimumRedundancy replaces the frequencies of a (sorted ascending, at
// least two) with optimal code lengths, in place and in O(n) (A. Moffat and
// J. Katajainen, "In-place calculation of minimum-redundancy codes", 1995).
func minimumRedundancy(a []uint32) {
	n := len(a)
	// Phase 1: build the tree, leaving each internal node's parent index.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Phase 2: internal node depths.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Phase 3: leaf depths, deepest first.
	avail, used, depth := 1, 0, uint32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}
}

// encoder is the pooled state of one Compress: the match finder's tables,
// the parsed tokens and their frequencies, the codes built from them, and
// the output.
type encoder struct {
	head   []uint32 // hash -> most recent position + 1 (0: none)
	prev   []uint32 // position -> earlier position + 1 with its hash
	tokens []uint32

	litFreq  [litLenSyms]uint32
	distFreq [distSyms]uint32
	lit      huffCode
	dist     huffCode
	cl       huffCode
	huff     huffScratch

	// The code-length stream of a dynamic header, symbol | extra<<8, and
	// the header's HLIT + 257, HDIST + 1 and HCLEN + 4.
	clStream           []uint16
	clFreq             [numCLSyms]uint32
	nlit, ndist, nclen int

	out []byte
}

// compress writes the DEFLATE stream of src, a page of at least storeBelow
// bytes, into e.out: one final block, or stored blocks when those are the
// smallest.
func (e *encoder) compress(src []byte) {
	e.parse(src)

	// Choose the block type by its exact size in bits.
	extra := 0
	for sym, f := range e.litFreq[257:] {
		extra += int(f) * int(lenExtra[sym])
	}
	for sym, f := range e.distFreq {
		extra += int(f) * int(distExtra[sym])
	}
	storedBits := 8 * storedLen(len(src))
	fixedBits := 3 + extra + fixedLitCode.cost(e.litFreq[:]) + fixedDistCode.cost(e.distFreq[:])
	dynBits := 3 + extra + e.buildDynamic()
	switch {
	case storedBits <= fixedBits && storedBits <= dynBits:
		e.out = appendStored(e.out[:0], src)
	case fixedBits <= dynBits:
		e.out = slices.Grow(e.out[:0], fixedBits/8+8)
		e.writeBlock(1, &fixedLitCode, &fixedDistCode)
	default:
		e.out = slices.Grow(e.out[:0], dynBits/8+8)
		e.writeBlock(2, &e.lit, &e.dist)
	}
}

// storedLen is the length of appendStored's stream of n bytes.
func storedLen(n int) int {
	if n < storeBelow {
		return n + 5*((n+maxStored-1)/maxStored) + 5
	}
	return n + 5*((n+maxStored-1)/maxStored)
}

// appendStored appends the stream of src as stored blocks of up to maxStored
// bytes each: under storeBelow in the framing compress/flate's NoCompression
// level writes (the data, then an empty final block), from there with the
// last block final — the stored choice compress makes for a parsed page.
func appendStored(out, src []byte) []byte {
	out = slices.Grow(out, storedLen(len(src)))
	final := len(src) >= storeBelow
	for len(src) > 0 {
		b := src[:min(len(src), maxStored)]
		src = src[len(b):]
		out = storedBlock(out, b, final && len(src) == 0)
	}
	if !final {
		out = storedBlock(out, nil, true)
	}
	return out
}

// storedBlock appends a stored block of b (at most maxStored bytes). The
// output is at a byte boundary: stored blocks are only ever written from
// the start of the stream or after another stored block.
func storedBlock(out, b []byte, final bool) []byte {
	hdr := byte(0)
	if final {
		hdr = 1
	}
	n := uint16(len(b))
	out = append(out, hdr, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
	return append(out, b...)
}

// hash5 hashes the low five bytes of u to 64 − shift bits: the left shift
// drops the other three, and the product's top bits mix every bit left
// (Fibonacci hashing).
func hash5(u uint64, shift uint) uint32 { return uint32((u << 24) * 0x9e3779b97f4a7c15 >> shift) }

// load64 returns the eight bytes at src[i:] little-endian, zero past the end
// of src: the hash reads five of them, so the last positions hash as well.
func load64(src []byte, i int) uint64 {
	if i+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[i:])
	}
	var b [8]byte
	copy(b[:], src[i:])
	return binary.LittleEndian.Uint64(b[:])
}

// parse fills e.tokens with a greedy LZ77 parse of src and counts each
// symbol's frequency, end-of-block included.
func (e *encoder) parse(src []byte) {
	n := len(src)
	hashBits := min(max(bits.Len(uint(n))-2, minHashBits), maxHashBits)
	shift := uint(64 - hashBits)
	e.head = slices.Grow(e.head[:0], 1<<hashBits)[:1<<hashBits]
	clear(e.head)
	e.prev = slices.Grow(e.prev[:0], n)[:n]
	e.tokens = slices.Grow(e.tokens[:0], n)
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	head, prev, tokens := e.head, e.prev, e.tokens
	litFreq, distFreq := &e.litFreq, &e.distFreq

	i, last := 0, n-5 // last: the last position with five bytes to hash
	for i <= last {
		h := hash5(load64(src, i), shift)
		cand := head[h]
		head[h] = uint32(i + 1)
		prev[i] = cand

		best, bestDist := minMatch-1, 0
		win := src[i:min(i+maxMatch, n)]
		for chain := maxChain; cand != 0 && chain > 0; chain-- {
			c := int(cand - 1)
			if i-c > maxDist {
				break
			}
			cw := src[c:][:len(win)]
			// A longer match must agree at the byte just past best.
			if cw[best] == win[best] {
				if l := matchLen(cw, win); l > best {
					best, bestDist = l, i-c
					if l >= niceMatch || l == len(win) {
						break
					}
				}
			}
			cand = prev[c]
		}
		if bestDist == 0 {
			tokens = append(tokens, uint32(src[i]))
			litFreq[src[i]]++
			i++
			continue
		}
		tokens = append(tokens, uint32(bestDist)<<matchShift|uint32(best-3))
		litFreq[257+int(lenSym[best-3])]++
		distFreq[distSym(uint32(bestDist))]++
		// Index the positions a short match covers, so later matches can
		// start inside it; of a long one only the last, so a run goes on
		// at distance 1 rather than at the match's length.
		end, from := i+best, i+1
		if best > maxInsert {
			from = end - 1
		}
		for p := from; p < end && p <= last; p++ {
			h := hash5(load64(src, p), shift)
			prev[p] = head[h]
			head[h] = uint32(p + 1)
		}
		i = end
	}
	// The tail too short to hash is literals.
	for ; i < n; i++ {
		tokens = append(tokens, uint32(src[i]))
		litFreq[src[i]]++
	}
	litFreq[256]++ // end of block
	e.tokens = tokens
}

// matchLen returns how many leading bytes a and b (of equal length) share.
func matchLen(a, b []byte) int {
	n := 0
	for len(a)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// buildDynamic builds the dynamic block's codes and its header's
// code-length stream, and returns the block's size in bits, the block-type
// bits and extra bits excluded.
func (e *encoder) buildDynamic() int {
	e.lit.build(e.litFreq[:], maxCodeBits, &e.huff)
	e.dist.build(e.distFreq[:], maxCodeBits, &e.huff)
	nlit, ndist := litLenSyms, distSyms
	for nlit > 257 && e.lit.len[nlit-1] == 0 {
		nlit--
	}
	for ndist > 1 && e.dist.len[ndist-1] == 0 {
		ndist--
	}

	// Run-length code the lengths (RFC 1951 §3.2.7): 16 repeats the
	// previous length 3–6 times, 17 and 18 write 3–10 and 11–138 zeros. A
	// run may cross from the lit/len lengths into the distance lengths.
	var lens [litLenSyms + distSyms]uint8
	all := append(append(lens[:0], e.lit.len[:nlit]...), e.dist.len[:ndist]...)
	e.clStream = e.clStream[:0]
	clear(e.clFreq[:])
	emit := func(sym, extra uint16) {
		e.clStream = append(e.clStream, sym|extra<<8)
		e.clFreq[sym]++
	}
	for i := 0; i < len(all); {
		l := all[i]
		run := 1
		for i+run < len(all) && all[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				r := min(run, 138)
				emit(18, uint16(r-11))
				run -= r
			}
			if run >= 3 {
				emit(17, uint16(run-3))
				run = 0
			}
		} else {
			emit(uint16(l), 0)
			run--
			for run >= 3 {
				r := min(run, 6)
				emit(16, uint16(r-3))
				run -= r
			}
		}
		for ; run > 0; run-- {
			emit(uint16(l), 0)
		}
	}
	e.cl.build(e.clFreq[:], maxCLBits, &e.huff)
	nclen := numCLSyms
	for nclen > 4 && e.cl.len[codeOrder[nclen-1]] == 0 {
		nclen--
	}
	e.nlit, e.ndist, e.nclen = nlit, ndist, nclen

	size := 5 + 5 + 4 + 3*nclen + e.cl.cost(e.clFreq[:]) +
		2*int(e.clFreq[16]) + 3*int(e.clFreq[17]) + 7*int(e.clFreq[18])
	return size + e.lit.cost(e.litFreq[:]) + e.dist.cost(e.distFreq[:])
}

// writeBlock writes the tokens as the stream's final block of type btype
// (1 fixed, 2 dynamic, whose header buildDynamic prepared) with the given
// codes, then end of block, and flushes to a byte boundary. The bit buffer
// lives in locals; each write is at most 28 bits (a 15-bit distance code and
// 13 extra bits) and leaves at most 31 pending.
func (e *encoder) writeBlock(btype uint64, lit, dist *huffCode) {
	out, bb, n := e.out, uint64(0), uint(0)
	put := func(v uint64, k uint) {
		bb |= v << n
		n += k
		if n >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(bb))
			bb >>= 32
			n -= 32
		}
	}
	put(1|btype<<1, 3)
	if btype == 2 {
		put(uint64(e.nlit-257), 5)
		put(uint64(e.ndist-1), 5)
		put(uint64(e.nclen-4), 4)
		for _, sym := range codeOrder[:e.nclen] {
			put(uint64(e.cl.len[sym]), 3)
		}
		for _, s := range e.clStream {
			sym, extra := s&0xff, uint64(s>>8)
			put(uint64(e.cl.code[sym]), uint(e.cl.len[sym]))
			switch sym {
			case 16:
				put(extra, 2)
			case 17:
				put(extra, 3)
			case 18:
				put(extra, 7)
			}
		}
	}
	litCode, litLen := lit.code[:litLenSyms], lit.len[:litLenSyms]
	distCode, distLen := dist.code[:distSyms], dist.len[:distSyms]
	for _, t := range e.tokens {
		if t>>matchShift == 0 {
			put(uint64(litCode[t]), uint(litLen[t]))
			continue
		}
		l := t & 0xffff
		ls := uint32(lenSym[l])
		put(uint64(litCode[257+ls])|uint64(l+3-uint32(lenBase[ls]))<<litLen[257+ls],
			uint(litLen[257+ls])+uint(lenExtra[ls]))
		d := t >> matchShift
		ds := distSym(d)
		put(uint64(distCode[ds])|uint64(d-uint32(distBase[ds]))<<distLen[ds],
			uint(distLen[ds])+uint(distExtra[ds]))
	}
	put(uint64(litCode[256]), uint(litLen[256]))
	for ; n > 0; n -= min(n, 8) {
		out = append(out, byte(bb))
		bb >>= 8
	}
	e.out = out
}
