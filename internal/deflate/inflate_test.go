package deflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// reference inflates src with compress/flate's reader, the decoder this
// package's must agree with.
func reference(src []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(src)))
}

// agree fails t unless Decompress and compress/flate both reject src, or
// both accept it as the same bytes.
func agree(t testing.TB, what string, src []byte) {
	t.Helper()
	want, werr := reference(src)
	got, gerr := Decompress(src)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%s: compress/flate err %v, Decompress err %v (%d input bytes %x)", what, werr, gerr, len(src), head(src))
	case gerr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: Decompress gave %d bytes, compress/flate %d (%d input bytes %x)", what, len(got), len(want), len(src), head(src))
	}
}

func head(b []byte) []byte { return b[:min(len(b), 32)] }

// xorshift keeps the generated inputs independent of math/rand's sequence.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// sample returns n bytes of one of several shapes, from incompressible to
// long runs, so every block type and match length shows up.
func sample(x *xorshift, n int) []byte {
	out := make([]byte, 0, n)
	switch x.next() % 5 {
	case 0: // random
		for len(out) < n {
			out = append(out, byte(x.next()))
		}
	case 1: // few symbols: short codes, many matches
		for len(out) < n {
			out = append(out, "ab c"[x.next()%4])
		}
	case 2: // words: the shape of a string column
		words := []string{"carefully", "final", "deposits", "sleep", "furiously", "ironic", " ", "packages"}
		for len(out) < n {
			out = append(out, words[x.next()%uint64(len(words))]...)
		}
	case 3: // runs, the longest matches at distance 1
		for len(out) < n {
			b, k := byte(x.next()), int(x.next()%600)
			for i := 0; i < k; i++ {
				out = append(out, b)
			}
		}
	default: // prices as little-endian float64s, the dominant page shape
		for len(out) < n {
			v := float64(90000+x.next()%10000000) / 100
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out[:n]
}

func compressAt(t testing.TB, data []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateMatchesCompressFlate is the deterministic half of FuzzInflate:
// streams written at every level (−2 is HuffmanOnly, 0 stored blocks) for
// sizes 0–70 KB, each decoded whole, truncated, with bytes after it, and
// with bits flipped, must be accepted or rejected as compress/flate does,
// with the same bytes out.
func TestInflateMatchesCompressFlate(t *testing.T) {
	x := xorshift(1)
	sizes := []int{0, 1, 2, 100, 1023, 1024, 4 << 10, 16 << 10, 32<<10 + 7, 65535, 65536, 70 << 10}
	streams := 0
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		for i, size := range sizes {
			if testing.Short() && size > 16<<10 && i%2 == 0 {
				continue
			}
			data := sample(&x, size)
			src := compressAt(t, data, level)
			what := fmt.Sprintf("level %d, %d bytes", level, size)
			got, err := Decompress(src)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: round trip differs (err %v)", what, err)
			}
			agree(t, what+" + trailing bytes", append(bytes.Clone(src), 0xff, 0x00, 0x17))
			for cut := range 5 {
				n := int(x.next() % uint64(len(src)))
				if cut == 0 {
					n = len(src) - 1
				}
				_, err := Decompress(src[:n])
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s cut to %d: err %v, want io.ErrUnexpectedEOF", what, n, err)
				}
				agree(t, fmt.Sprintf("%s cut to %d", what, n), src[:n])
			}
			for flip := range 5 {
				bad := bytes.Clone(src)
				// Headers are where a flip turns into a different code, so
				// the first flips land in the first bytes.
				at := int(x.next() % uint64(min(len(bad), 16<<flip)))
				bad[at] ^= 1 << (x.next() % 8)
				agree(t, fmt.Sprintf("%s, bit flipped at byte %d", what, at), bad)
			}
			streams++
		}
	}
	t.Logf("%d streams, each decoded whole, with trailing bytes, 5 cuts and 5 flips", streams)
}

// bitWriter writes a DEFLATE stream by hand: fields LSB first, Huffman
// codes MSB first (RFC 1951 §3.1.1).
type bitWriter struct {
	out []byte
	n   uint
}

func (w *bitWriter) bits(v uint64, k uint) *bitWriter {
	for i := uint(0); i < k; i++ {
		if w.n%8 == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
	return w
}

func (w *bitWriter) code(c uint64, k uint) *bitWriter {
	for i := k; i > 0; i-- {
		w.bits(c>>(i-1)&1, 1)
	}
	return w
}

// dynamic starts a final dynamic block declaring the given lit/len and
// distance code lengths (HLIT and HDIST from their counts), sent through a
// code-length code that gives each length 0–15 a 4-bit code.
func dynamic(lit, dist []uint8) *bitWriter {
	w := new(bitWriter)
	w.bits(1, 1).bits(2, 2)
	w.bits(uint64(len(lit)-257), 5).bits(uint64(len(dist)-1), 5).bits(19-4, 4)
	for _, sym := range codeOrder {
		if sym < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint64(l), 4)
	}
	return w
}

// lens returns n code lengths, zero but for the given symbol → length pairs.
func lens(n int, pairs ...int) []uint8 {
	out := make([]uint8, n)
	for i := 0; i < len(pairs); i += 2 {
		out[pairs[i]] = uint8(pairs[i+1])
	}
	return out
}

// TestInflateEdgeStreams covers the acceptance rules one hand-made stream
// at a time; each must also get compress/flate's verdict.
func TestInflateEdgeStreams(t *testing.T) {
	fixed := func() *bitWriter { return new(bitWriter).bits(1, 1).bits(1, 2) }
	const lit97 = 0x30 + 'a' // fixed code of literal 'a', 8 bits
	aEOB := lens(257, 'a', 1, 256, 1)
	aEOBLen := lens(258, 'a', 1, 256, 2, 257, 2)
	for _, c := range []struct {
		name string
		src  []byte
		want string // "" with ok false: rejected
		ok   bool
	}{
		{"empty input", nil, "", false},
		{"empty final stored block", []byte{0x01, 0x00, 0x00, 0xff, 0xff}, "", true},
		{"stored, then bytes after the final block", []byte{0x01, 0x01, 0x00, 0xfe, 0xff, 'a', 0x13, 0x37}, "a", true},
		{"stored NLEN not ~LEN", []byte{0x01, 0x01, 0x00, 0xff, 0xff, 'a'}, "", false},
		{"stored block short", []byte{0x01, 0x02, 0x00, 0xfd, 0xff, 'a'}, "", false},
		{"non-final stored block, then nothing", []byte{0x00, 0x01, 0x00, 0xfe, 0xff, 'a'}, "", false},
		{"reserved block type", []byte{0x07}, "", false},
		{"fixed block, EOB only", fixed().code(0, 7).out, "", true},
		{"fixed block, no EOB", fixed().code(lit97, 8).out, "", false},
		{"fixed lit/len symbol 286", fixed().code(0xc6, 8).out, "", false},
		{"fixed lit/len symbol 287", fixed().code(0xc7, 8).out, "", false},
		{"fixed match at distance 1", fixed().code(lit97, 8).code(1, 7).code(0, 5).code(0, 7).out, "aaaa", true},
		{"fixed distance beyond output", fixed().code(lit97, 8).code(1, 7).code(1, 5).code(0, 7).out, "", false},
		{"fixed distance symbol 30", fixed().code(lit97, 8).code(1, 7).code(30, 5).code(0, 7).out, "", false},
		{"fixed length symbol 284 + 31 = 258", fixed().code(lit97, 8).code(0xc4, 8).bits(31, 5).code(0, 5).code(0, 7).out,
			string(bytes.Repeat([]byte{'a'}, 259)), true},
		{"dynamic, single lit/len code of length 1, empty distance code", dynamic(lens(257, 256, 1), lens(1)).code(0, 1).out, "", true},
		{"dynamic, single code, the unused bit", dynamic(lens(257, 256, 1), lens(1)).code(1, 1).out, "", false},
		{"dynamic, single code of length 2", dynamic(lens(257, 256, 2), lens(1)).code(0, 2).out, "", false},
		{"dynamic, literals, empty distance code", dynamic(aEOB, lens(1)).code(0, 1).code(0, 1).code(1, 1).out, "aa", true},
		{"dynamic, a length with an empty distance code", dynamic(aEOBLen, lens(1)).code(0, 1).code(3, 2).code(2, 2).out, "", false},
		{"dynamic, one distance code of length 1", dynamic(aEOBLen, lens(1, 0, 1)).code(0, 1).code(3, 2).code(0, 1).code(2, 2).out, "aaaa", true},
		{"dynamic, incomplete lit/len code", dynamic(lens(257, 'a', 2, 256, 2), lens(1)).code(1, 2).out, "", false},
		{"dynamic, over-subscribed lit/len code", dynamic(lens(257, 'a', 1, 'b', 1, 256, 1), lens(1)).code(0, 1).out, "", false},
		{"dynamic, HLIT 287", dynamic(lens(287, 256, 1), lens(1)).code(0, 1).out, "", false},
		{"dynamic, HDIST 31", dynamic(lens(257, 256, 1), lens(31)).code(0, 1).out, "", false},
		{"dynamic, HLIT 286, HDIST 30", dynamic(lens(286, 256, 1), lens(30, 29, 1)).code(0, 1).out, "", true},
		// Code-length symbol 16 (repeat the previous length) as the very
		// first length: a code-length code of {16: 1, 0: 1}.
		{"dynamic, repeat with no previous length",
			new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).
				bits(1, 3).bits(0, 3).bits(0, 3).bits(1, 3).code(1, 1).bits(0, 2).out, "", false},
	} {
		got, err := Decompress(c.src)
		if (err == nil) != c.ok || string(got) != c.want {
			t.Errorf("%s: got %q, err %v; want %q, ok=%v", c.name, got, err, c.want, c.ok)
		}
		agree(t, c.name, c.src)
	}
}

// FuzzInflate holds Decompress to compress/flate's reader on any input:
// both reject it, or both accept it as the same bytes.
func FuzzInflate(f *testing.F) {
	// Pages of every shape sample draws, at every level, whole and cut.
	x := xorshift(5)
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		for range 4 {
			src := compressAt(f, sample(&x, 1<<10+int(x.next()%(2<<10))), level)
			f.Add(src)
			f.Add(src[:len(src)/2])
		}
	}
	f.Add([]byte{0x03, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, src []byte) {
		// DEFLATE expands up to 1032:1; keep the output page-sized so the
		// time goes to decoding, not to writing megabytes.
		if len(src) > 8<<10 {
			t.Skip()
		}
		agree(t, "fuzz input", src)
	})
}
