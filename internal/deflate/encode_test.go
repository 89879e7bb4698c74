package deflate

import (
	"bytes"
	"compress/flate"
	"fmt"
	"testing"
)

// roundTrip fails t unless src compresses to a stream both compress/flate's
// reader and Decompress inflate to src.
func roundTrip(t testing.TB, what string, src []byte) []byte {
	t.Helper()
	stored := Compress(src)
	if got, err := reference(stored); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("%s: compress/flate reads %d of %d bytes back (err %v)", what, len(got), len(src), err)
	}
	if got, err := Decompress(stored); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("%s: Decompress reads %d of %d bytes back (err %v)", what, len(got), len(src), err)
	}
	return stored
}

// TestCompressRoundTrip is the deterministic half of FuzzDeflate: pages of
// every shape sample draws, 0–70 KB, must come back whole through both
// decoders. A page under 1 KiB must be exactly what compress/flate's
// NoCompression writer makes of it; any other at most its stored size.
func TestCompressRoundTrip(t *testing.T) {
	x := xorshift(3)
	sizes := []int{0, 1, 2, 3, 4, 5, 100, 1023, 1024, 1025, 4 << 10, 16 << 10, 32<<10 + 7, 65535, 65536, 65537, 70 << 10}
	for _, size := range sizes {
		for shape := range 8 {
			data := sample(&x, size)
			what := fmt.Sprintf("%d bytes, shape %d", size, shape)
			stored := roundTrip(t, what, data)
			if size < storeBelow {
				if want := compressAt(t, data, flate.NoCompression); !bytes.Equal(stored, want) {
					t.Fatalf("%s: %d stored bytes, compress/flate's NoCompression writes %d", what, len(stored), len(want))
				}
			} else if limit := size + 5*((size+maxStored-1)/maxStored); len(stored) > limit {
				t.Fatalf("%s: %d stored bytes, more than stored blocks' %d", what, len(stored), limit)
			}
		}
	}
}

// TestCompressBlockTypes checks each block type is chosen where it is the
// smallest: random bytes are stored, a short run of text takes the fixed
// code, and a long page of text a dynamic one.
func TestCompressBlockTypes(t *testing.T) {
	x := xorshift(9)
	random := make([]byte, 4<<10)
	for i := range random {
		random[i] = byte(x.next())
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 100)
	for _, c := range []struct {
		name  string
		data  []byte
		btype byte
	}{
		{"random", random, 0},
		{"repeated phrase", bytes.Repeat([]byte("abcd"), 512), 1},
		{"text", text, 2},
	} {
		stored := roundTrip(t, c.name, c.data)
		if got := stored[0] >> 1 & 3; stored[0]&1 != 1 || got != c.btype {
			t.Errorf("%s: first block header %03b, want final block of type %d", c.name, stored[0]&7, c.btype)
		}
	}
}

// TestBuildLimitsCodeLengths builds codes over Fibonacci frequencies (capped
// at 2^20, so the sums fit), whose optimal lengths grow by one per symbol,
// and checks each code is complete (Kraft sum exactly 1), within its limit,
// and gives a more frequent symbol no longer a code than a rarer one.
func TestBuildLimitsCodeLengths(t *testing.T) {
	for _, c := range []struct {
		syms, limit int
	}{{2, 15}, {19, 7}, {30, 15}, {286, 15}, {3, 2}} {
		freq := make([]uint32, c.syms)
		a, b := uint32(1), uint32(1)
		for i := range freq {
			freq[i] = min(a, 1<<20)
			a, b = b, a+b
		}
		var code huffCode
		code.build(freq, c.limit, &huffScratch{})
		kraft := 0
		for i, l := range code.len {
			if l == 0 || int(l) > c.limit {
				t.Fatalf("%d symbols, limit %d: symbol %d has length %d", c.syms, c.limit, i, l)
			}
			if i > 0 && l > code.len[i-1] {
				t.Fatalf("%d symbols, limit %d: symbol %d (freq %d) longer than symbol %d", c.syms, c.limit, i, freq[i], i-1)
			}
			kraft += 1 << (c.limit - int(l))
		}
		if kraft != 1<<c.limit {
			t.Fatalf("%d symbols, limit %d: Kraft sum %d/%d", c.syms, c.limit, kraft, 1<<c.limit)
		}
	}
	// One used symbol gets a partner, so the code is still complete.
	var code huffCode
	code.build([]uint32{0, 0, 5}, 15, &huffScratch{})
	if code.len[0] != 1 || code.len[2] != 1 {
		t.Fatalf("single symbol: lengths %v, want a partner at symbol 0", code.len)
	}
}

// TestCompressSkewedPage deflates a page whose byte frequencies are
// Fibonacci numbers, so its optimal lit/len code is deeper than 15 bits and
// the written one must be limited.
func TestCompressSkewedPage(t *testing.T) {
	var page []byte
	a, b := 1, 1
	for sym := range 24 {
		for range a {
			page = append(page, byte(sym))
		}
		a, b = b, a+b
	}
	// Spread the symbols so matches do not swallow them.
	x := xorshift(4)
	for i := len(page) - 1; i > 0; i-- {
		j := int(x.next() % uint64(i+1))
		page[i], page[j] = page[j], page[i]
	}
	roundTrip(t, "fibonacci page", page[:min(len(page), 70<<10)])
}

// FuzzDeflate holds Compress to its contract on any input: both decoders
// read the input back from its output, and the output depends only on the
// input.
func FuzzDeflate(f *testing.F) {
	x := xorshift(7)
	for _, size := range []int{0, 1, 1023, 1024, 3000} {
		f.Add(sample(&x, size))
	}
	f.Add(bytes.Repeat([]byte{0}, 5000))
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 80<<10 {
			t.Skip()
		}
		stored := roundTrip(t, "fuzz input", src)
		if again := Compress(src); !bytes.Equal(again, stored) {
			t.Fatalf("%d input bytes compress to %d bytes, then to %d", len(src), len(stored), len(again))
		}
	})
}
