package buffer

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"cloudiq/internal/column"
	"cloudiq/internal/core"
	"cloudiq/internal/deflate"
	"cloudiq/internal/objstore"
)

// xorshift is the corpus's own generator, so the golden pages do not depend on
// math/rand's sequence.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func randomBytes(seed uint64, n int) []byte {
	x := xorshift(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(x.next() >> 32)
	}
	return out
}

type corpusPage struct {
	name string
	data []byte
	// sha256 of FlateCodec{}.Compress(data). Stored bytes are the object
	// sizes every PUT, GET and stored dollar is priced by
	// (stored_bytes_per_input_byte), so they move only by a decision to move
	// them, re-pinned here in the same change. Last moved when a match
	// longer than 16 bytes got its last position indexed again: zeros_64k
	// went 301 → 78 bytes (a run's matches reach back one byte again) and
	// comment_column 4,063 → 4,065. Before that, when the match finder took
	// a five-byte key and stopped indexing the inside of matches longer than
	// 16 bytes, comment_column went 4,155 → 4,063 bytes, and zeros_64k 78 →
	// 301 (its 258-byte matches reached back 258 bytes, not one, and a far
	// distance costs extra bits). Before that, when
	// internal/deflate's own encoder replaced compress/flate's writer,
	// comment_column, zeros_64k and random_64k changed (each is now one
	// final block of whichever type is smallest); empty, one_byte and
	// int_column, under 1 KiB, kept the stored framing compress/flate's
	// NoCompression level writes.
	sha string
}

// goldenCorpus is the fixed set of pages the identity, poisoning and fuzz
// tests share: the degenerate sizes, the two page shapes a load actually
// writes (an encoded int column and an encoded l_comment-like string column
// of one 512-row segment), and the two extremes of compressibility.
func goldenCorpus() []corpusPage {
	ints := column.NewVector(column.Int64)
	x := xorshift(7)
	for i := 0; i < 512; i++ {
		ints.AppendInt(int64(i)*32 + int64(x.next()%7))
	}
	words := []string{"carefully", "final", "deposits", "sleep", "furiously", "among", "the", "ironic",
		"packages", "blithely", "regular", "accounts", "haggle", "quickly", "express", "requests"}
	comments := column.NewVector(column.String)
	for i := 0; i < 512; i++ {
		var s []byte
		for w := 0; w < 3+int(x.next()%6); w++ {
			if w > 0 {
				s = append(s, ' ')
			}
			s = append(s, words[x.next()%uint64(len(words))]...)
		}
		comments.AppendStr(string(s))
	}
	return []corpusPage{
		{"empty", []byte{}, "f067985d352d2da6dfaef4844a66d06c5371ecbd9530a4d195ac599fef8b3427"},
		{"one_byte", []byte{0x2a}, "e2c53d8ee8c816adb62f72ebb6796606d62a94e03c55ea0acd4b7a3b44a15efd"},
		{"int_column", column.EncodeSegment(ints), "f37288a3ccbaff71c8d4bed582c51038560f75fcea7ae190af93e1e25a1eea1d"},
		{"comment_column", column.EncodeSegment(comments), "d1d5350a429aa9b26541ba6c5661701d82e4906ffc63e576694c19c364ac64cc"},
		{"zeros_64k", make([]byte, 64<<10), "9831d56352b2b4e0a2b507aaec8853cbdaa082c60388f281ac2f16aa0411ea56"},
		{"random_64k", randomBytes(11, 64<<10), "a2327c0435a1afed78f6f5da30b7e082924b85e1100ee5d46e1f3549195b3d27"},
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestFlateCodecGolden pins the stored form of every corpus page and checks
// each round-trips.
func TestFlateCodecGolden(t *testing.T) {
	codec := FlateCodec{}
	for _, pg := range goldenCorpus() {
		stored := codec.Compress(pg.data)
		if got := sha(stored); got != pg.sha {
			t.Errorf("%s: %d -> %d bytes, sha256 %s, want %s", pg.name, len(pg.data), len(stored), got, pg.sha)
		}
		back, err := codec.Decompress(stored)
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		if back == nil || !bytes.Equal(back, pg.data) {
			t.Errorf("%s: round trip differs (%d bytes in, %d out, nil=%v)", pg.name, len(pg.data), len(back), back == nil)
		}
	}
}

// storedLen is the length of a page of n bytes written as DEFLATE stored
// blocks by compress/flate: 5 bytes of header per block of up to 65,535
// bytes, and the 5-byte empty final block Close writes.
func storedLen(n int) int {
	return n + 5*((n+65534)/65535) + 5
}

// TestFlateCodecSizes round-trips the sizes either side of the store/deflate
// cut, every corpus page and every page the benchmarks compress, and checks
// each image is plain DEFLATE of the page: the standard library's reader
// inflates it, stored blocks included, to the page itself. A page under
// 1 KiB must come out stored, and a compressible page of 1 KiB or more
// deflated (the corpus pages' images are pinned by TestFlateCodecGolden).
func TestFlateCodecSizes(t *testing.T) {
	type page struct {
		name     string
		data     []byte
		deflates bool
	}
	var pages []page
	for _, size := range []int{0, 1, 512, 1023, 1024, 1025, 4 << 10, 16 << 10, 64 << 10} {
		pages = append(pages, page{fmt.Sprintf("%dB", size), benchPage(size), size >= 1<<10})
	}
	pages = append(pages, page{"float_column", floatPage(), true}, page{"compact_float_column", column.Compact(floatPage()), false},
		page{"noise_float_column", noiseFloatPage(), false})
	for i, pg := range writeFlushPages() {
		pages = append(pages, page{fmt.Sprintf("write_flush_%d", i), pg, false})
	}
	for _, pg := range goldenCorpus() {
		pages = append(pages, page{pg.name, pg.data, false})
	}
	codec := FlateCodec{}
	for _, pg := range pages {
		stored := codec.Compress(pg.data)
		if n := len(pg.data); n < 1<<10 && len(stored) != storedLen(n) {
			t.Errorf("%s: %d -> %d bytes, want %d (stored blocks)", pg.name, n, len(stored), storedLen(n))
		}
		if pg.deflates && len(stored) >= len(pg.data) {
			t.Errorf("%s: %d -> %d bytes, want it deflated", pg.name, len(pg.data), len(stored))
		}
		back, err := codec.Decompress(stored)
		if err != nil || !bytes.Equal(back, pg.data) {
			t.Errorf("%s: round trip differs (err %v)", pg.name, err)
		}
		plain, err := io.ReadAll(flate.NewReader(bytes.NewReader(stored)))
		if err != nil || !bytes.Equal(plain, pg.data) {
			t.Errorf("%s: compress/flate reader: %d bytes back, err %v", pg.name, len(plain), err)
		}
	}
}

// roundTripPages are pages FlateCodec must give back byte for byte whatever
// their first bytes claim: two that begin [Float64][EncDecimalFloat] but are
// no decimal page (a codec that read them as one failed on the first and
// returned other bytes for the second), a plain-float page, its compact form
// and a table's gob meta page.
func roundTripPages(tb testing.TB) []corpusPage {
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(struct {
		Name  string
		Rows  int64
		Zones []float64
	}{"lineitem", 120000, []float64{0.04, 104949.5}}); err != nil {
		tb.Fatal(err)
	}
	return []corpusPage{
		{name: "decimal header, no scale", data: []byte{1, 6, 0, 0, 0, 0, 9, 9}},
		{name: "decimal header, other bytes", data: append([]byte{1, 6, 2, 0, 0, 0, 3, 0}, bytes.Repeat([]byte{0xa5}, 40)...)},
		{name: "plain float page", data: floatPage()},
		{name: "compact float page", data: column.Compact(floatPage())},
		{name: "gob meta page", data: meta.Bytes()},
	}
}

// TestFlateCodecRoundTrip: Decompress(Compress(p)) is p for every page, the
// codec reading nothing into what the page holds.
func TestFlateCodecRoundTrip(t *testing.T) {
	codec := FlateCodec{}
	for _, pg := range roundTripPages(t) {
		back, err := codec.Decompress(codec.Compress(pg.data))
		if err != nil || !bytes.Equal(back, pg.data) {
			t.Errorf("%s: %d bytes come back as %d (err %v)", pg.name, len(pg.data), len(back), err)
		}
	}
}

// decimalPage is the compact form of an n-row plain-float page of cents
// k/100, k drawn from [0, 2^width) with both ends present: an EncDecimalFloat
// page of exactly that width. Past 45 bits k/100 no longer round-trips
// through a float64, so the values are the integers k.
func decimalPage(x *xorshift, n, width int) []byte {
	v := column.NewVector(column.Float64)
	top := uint64(1)<<width - 1
	div := 100.0
	if width > 45 {
		div = 1
	}
	for i := 0; i < n; i++ {
		k := x.next() & top
		switch i {
		case 0:
			k = 0
		case 1:
			k = top
		}
		v.AppendFloat(float64(k) / div)
	}
	return column.Compact(column.EncodeSegment(v))
}

// TestPackedPagesSkipTheParse: a compact decimal page of any width, 1–53
// bits, and any row count, from just under 1 KiB to 65,536 rows, and
// MaxSegmentRows at five widths (not under -short), is stored without a
// parse — the bytes the full parse-and-choose path writes wherever that path
// chose stored blocks — and comes back whole. The full path deflates only
// 16-bit pages of 65,536 rows or more, by 0.1 %.
func TestPackedPagesSkipTheParse(t *testing.T) {
	x := xorshift(23)
	codec := FlateCodec{}
	var pages, parsedStored int
	for width := 1; width <= 53; width++ {
		atKiB := ((1<<10-16)*8 + width - 1) / width // rows of the first page of 1 KiB or more
		rows := []int{atKiB - 1, atKiB, atKiB + 1, 4096, 65536}
		switch width {
		case 1, 16, 17, 32, 53:
			if !testing.Short() {
				rows = append(rows, column.MaxSegmentRows)
			}
		}
		for _, n := range rows {
			page := decimalPage(&x, n, width)
			if column.Encoding(page[1]) != column.EncDecimalFloat {
				t.Fatalf("width %d, %d rows: the page did not compact", width, n)
			}
			stored := codec.Compress(page)
			if stored[0]>>1&3 != 0 {
				t.Fatalf("width %d, %d rows: the page was deflated, not stored", width, n)
			}
			if full := deflate.Compress(page); full[0]>>1&3 == 0 {
				parsedStored++
				if !bytes.Equal(stored, full) {
					t.Fatalf("width %d, %d rows: the stored page differs from the parsed path's stored blocks", width, n)
				}
			}
			back, err := codec.Decompress(stored)
			if err != nil || !bytes.Equal(back, page) {
				t.Fatalf("width %d, %d rows: round trip differs (err %v)", width, n, err)
			}
			pages++
		}
	}
	t.Logf("%d pages, %d of them stored by the full parse too", pages, parsedStored)
}

// TestFlateCodecReadsDefaultLevel decodes images written the way every page
// was written before the store/deflate cut, flate.DefaultCompression for
// every size: a database stored then still reads.
func TestFlateCodecReadsDefaultLevel(t *testing.T) {
	for _, pg := range goldenCorpus() {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(pg.data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := FlateCodec{}.Decompress(buf.Bytes())
		if err != nil || !bytes.Equal(back, pg.data) {
			t.Errorf("%s: level-6 image does not decode (err %v)", pg.name, err)
		}
	}
}

// TestFlateCodecReuse compresses one page 1,000 times through the pool with
// pages of other sizes in between: a missed Reset or a scratch buffer shared
// with a returned slice shows as different bytes.
func TestFlateCodecReuse(t *testing.T) {
	codec := FlateCodec{}
	corpus := goldenCorpus()
	page := corpus[2].data
	want := codec.Compress(page)
	for i := 0; i < 1000; i++ {
		other := corpus[i%len(corpus)]
		stored := codec.Compress(other.data)
		if back, err := codec.Decompress(stored); err != nil || !bytes.Equal(back, other.data) {
			t.Fatalf("iteration %d: %s does not round-trip (err %v)", i, other.name, err)
		}
		if got := codec.Compress(page); !bytes.Equal(got, want) {
			t.Fatalf("iteration %d (after %s): compressed bytes changed", i, other.name)
		}
	}
}

// TestFlateCodecPoisoning checks that a failed Decompress leaves nothing
// behind in the pool, and that returned slices are the caller's own.
func TestFlateCodecPoisoning(t *testing.T) {
	codec := FlateCodec{}
	corpus := goldenCorpus()
	good := corpus[2]
	goodStored := codec.Compress(good.data)
	checkGood := func(after string) {
		t.Helper()
		back, err := codec.Decompress(goodStored)
		if err != nil || !bytes.Equal(back, good.data) {
			t.Fatalf("after %s: good page no longer inflates (err %v)", after, err)
		}
	}
	for _, pg := range corpus {
		stored := codec.Compress(pg.data)

		if _, err := codec.Decompress(stored[:len(stored)/2]); err == nil {
			t.Errorf("%s: truncated input inflated without error", pg.name)
		}
		checkGood("truncated " + pg.name)

		corrupt := bytes.Clone(stored)
		corrupt[0] |= 0x06 // block type 3 is reserved: always invalid
		if _, err := codec.Decompress(corrupt); err == nil {
			t.Errorf("%s: corrupt input inflated without error", pg.name)
		}
		checkGood("corrupt " + pg.name)
	}

	// Scribbling over what Compress and Decompress returned must not reach
	// any later result.
	stored := codec.Compress(good.data)
	plain, err := codec.Decompress(stored)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stored {
		stored[i] = 0xff
	}
	for i := range plain {
		plain[i] = 0xff
	}
	if got := codec.Compress(good.data); !bytes.Equal(got, goodStored) {
		t.Error("mutating a Compress result changed a later Compress")
	}
	checkGood("mutating returned slices")
}

// TestFlateCodecConcurrent runs under the race job (-short included): eight
// goroutines share the pools, each with its own page.
func TestFlateCodecConcurrent(t *testing.T) {
	codec := FlateCodec{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half compressible, half not, every goroutine a different size.
			page := append(bytes.Repeat([]byte{byte(g)}, 300*(g+1)), randomBytes(uint64(g+1), 200*(g+1))...)
			want := codec.Compress(page)
			for i := 0; i < 200; i++ {
				stored := codec.Compress(page)
				if !bytes.Equal(stored, want) {
					t.Errorf("goroutine %d iteration %d: compressed bytes changed", g, i)
					return
				}
				back, err := codec.Decompress(stored)
				if err != nil || !bytes.Equal(back, page) {
					t.Errorf("goroutine %d iteration %d: round trip differs (err %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlateCodecAllocs is the allocation gate for one page through the codec
// (ROADMAP 1b), on each of Compress's two paths: Compress used to build a
// flate.Writer per page (19 allocations, 0.8 MiB) and Decompress a
// flate.Reader plus io.ReadAll's doublings (43 KB); with compress/flate's
// reader pooled, Decompress still made 20 allocations at 16 KiB, and with
// its writer pooled Compress made 2. With the pools warm each is exactly
// the one slice it returns, at every size and for every page shape, a
// compact float page included: the codec does nothing to a page but DEFLATE.
func TestFlateCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	codec := FlateCodec{}
	for _, pg := range []struct {
		path string
		data []byte
	}{
		{"stored", benchPage(512)},
		{"deflated", benchPage(1 << 10)},
		{"deflated", benchPage(4 << 10)},
		{"deflated", benchPage(16 << 10)},
		{"compact float", column.Compact(floatPage())},
		{"plain float", noiseFloatPage()},
	} {
		stored := codec.Compress(pg.data)
		if got := testing.AllocsPerRun(100, func() { codec.Compress(pg.data) }); got != 1 {
			t.Errorf("Compress of a %d-byte %s page: %.0f allocations, want 1 — is a compressor built per page again?", len(pg.data), pg.path, got)
		}
		var err error
		if got := testing.AllocsPerRun(100, func() { _, err = codec.Decompress(stored) }); got != 1 || err != nil {
			t.Errorf("Decompress of a %d-byte %s page: %.0f allocations (err %v), want 1 (the page)", len(pg.data), pg.path, got, err)
		}

		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = codec.Decompress(stored)
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(2*len(pg.data)) {
			t.Errorf("Decompress allocates %d bytes for a %d-byte %s page, limit 2x", perRun, len(pg.data), pg.path)
		}
	}
}

// fixedCodec stores every page as one shared image and reads nothing back:
// with it, the bytes a Write allocates are the pool's, not DEFLATE's.
type fixedCodec struct{ image []byte }

func (c fixedCodec) Compress([]byte) []byte { return c.image }

func (fixedCodec) Decompress([]byte) ([]byte, error) {
	return nil, errors.New("fixedCodec stores no page")
}

// TestObjectWriteAllocs is the allocation gate on Object.Write, which takes
// ownership of the page it is given: rewriting a dirty 64 KiB page (and
// waiting for its compression) allocates the pool's bookkeeping, a few
// hundred bytes, and no copy of the page. The copy Write used to make showed
// here as 64 KiB a call.
func TestObjectWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := newRig(t, 1<<20, objstore.Consistency{})
	o := r.openCodec(t, fixedCodec{image: []byte{1}})
	page := pageData(1, 64<<10)
	write := func() {
		if err := o.Write(ctxb(), 0, page); err != nil {
			t.Fatal(err)
		}
		pageImage(o, 0) // wait for the compression worker
	}
	write()
	if got := o.pool.pages[o.entryKey(0, core.Entry{})].data; &got[0] != &page[0] {
		t.Fatal("the cache holds a copy of the written page, not the page")
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(len(page)/16) {
		t.Errorf("Write of a dirty %d-byte page allocates %d bytes, limit %d — is the page copied again?", len(page), perRun, len(page)/16)
	}
}

var benchSink []byte

// benchPage is an encoded lineitem-like string column cut to size: the
// compressible shape a load writes.
func benchPage(size int) []byte {
	page := goldenCorpus()[3].data
	for len(page) < size {
		page = append(page, page...)
	}
	return page[:size]
}

// BenchmarkFlateCodecCompress covers both of Compress's paths: 512B and the
// encoded n-bit int page are stored, the rest deflated; float_column is the
// price page in the compact form a table writes, noise_float a plain one.
func BenchmarkFlateCodecCompress(b *testing.B) {
	cases := []struct {
		name string
		page []byte
	}{
		{"float_column", column.Compact(floatPage())},
		{"noise_float", noiseFloatPage()},
		{"512B", benchPage(512)},
		{"nbit_int", goldenCorpus()[2].data},
		{"1KB", benchPage(1 << 10)},
		{"4KB", benchPage(4 << 10)},
		{"16KB", benchPage(16 << 10)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = FlateCodec{}.Compress(c.page)
			}
		})
	}
}

// floatPage is an encoded 512-row plain-float column of lineitem-like prices:
// the page shape that carries most of the bytes a cold scan inflates.
func floatPage() []byte {
	v := column.NewVector(column.Float64)
	x := xorshift(13)
	for i := 0; i < 512; i++ {
		v.AppendFloat(float64(90000+x.next()%10000000) / 100)
	}
	return column.EncodeSegment(v)
}

// noiseFloatPage is a 512-row float page of random bit patterns: no scale
// makes them exact, so it is stored plain-float, DEFLATE's worst case.
func noiseFloatPage() []byte {
	v := column.NewVector(column.Float64)
	x := xorshift(17)
	for i := 0; i < 512; i++ {
		v.AppendFloat(math.Float64frombits(x.next()))
	}
	return column.EncodeSegment(v)
}

// BenchmarkFlateCodecDecompress covers the shapes a cold scan inflates: the
// 512-row float page (in its compact form, n-bit cents), the same shape of
// random bits (plain float, deflated), a 512 B page (stored), the l_comment
// page, and the compressible string page cut to 1, 4 and 16 KiB.
func BenchmarkFlateCodecDecompress(b *testing.B) {
	cases := []struct {
		name string
		page []byte
	}{
		{"float_column", column.Compact(floatPage())},
		{"noise_float", noiseFloatPage()},
		{"512B", benchPage(512)},
		{"comment_column", goldenCorpus()[3].data},
		{"1KB", benchPage(1 << 10)},
		{"4KB", benchPage(4 << 10)},
		{"16KB", benchPage(16 << 10)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			stored := FlateCodec{}.Compress(c.page)
			b.SetBytes(int64(len(c.page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = FlateCodec{}.Decompress(stored)
			}
		})
	}
}

// FuzzFlateDecompress feeds arbitrary stored bytes to the page decoder: it
// must never panic, and whatever it accepts must survive Compress →
// Decompress unchanged.
func FuzzFlateDecompress(f *testing.F) {
	// DEFLATE can expand 1:1032 and a page is re-compressed below: keep
	// inputs and what is re-compressed page-sized, so the fuzzer spends its
	// time in the decoder and not compressing megabytes of zeros.
	const maxStored, maxPage = 4 << 10, 64 << 10
	for _, pg := range goldenCorpus() {
		stored := FlateCodec{}.Compress(pg.data)
		if len(stored) > maxStored {
			stored = FlateCodec{}.Compress(pg.data[:1<<10])
		}
		f.Add(stored)
		f.Add(stored[:len(stored)/2])
	}
	f.Add(FlateCodec{}.Compress(benchPage(512))) // a compressible page, stored
	compact := column.Compact(floatPage())
	f.Add(FlateCodec{}.Compress(compact))                  // a compact float page
	f.Add(FlateCodec{}.Compress(compact[:len(compact)/2])) // cut short
	f.Fuzz(func(t *testing.T, stored []byte) {
		if len(stored) > maxStored {
			t.Skip()
		}
		codec := FlateCodec{}
		page, err := codec.Decompress(stored)
		if err != nil || len(page) > maxPage {
			return
		}
		back, err := codec.Decompress(codec.Compress(page))
		if err != nil || !bytes.Equal(back, page) {
			t.Fatalf("accepted %d stored bytes as a %d-byte page that does not round-trip (err %v)", len(stored), len(page), err)
		}
	})
}

// FuzzFlateCodecRoundTrip: any bytes, as a page, come back from
// Decompress(Compress(b)) as themselves.
func FuzzFlateCodecRoundTrip(f *testing.F) {
	for _, pg := range roundTripPages(f) {
		f.Add(pg.data)
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		codec := FlateCodec{}
		back, err := codec.Decompress(codec.Compress(page))
		if err != nil || !bytes.Equal(back, page) {
			t.Fatalf("%d bytes come back as %d (err %v)", len(page), len(back), err)
		}
	})
}
