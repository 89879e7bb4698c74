package buffer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cloudiq/internal/column"
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
	// sha256 of FlateCodec{}.Compress(data), generated at the parent of the
	// PR that introduced internal/deflate (commit 6ef7091, per-call
	// flate.NewWriter at flate.DefaultCompression, go1.24). Stored bytes feed
	// stored_bytes_per_input_byte, the benchmark's golden fingerprints and
	// the simtest generator fingerprints, so they may not move.
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
		{"one_byte", []byte{0x2a}, "f9d4507d68e2e77aad8c1dca2c0c03afc3142df5bb23acbafc57896e89dadcd2"},
		{"int_column", column.EncodeSegment(ints), "f37288a3ccbaff71c8d4bed582c51038560f75fcea7ae190af93e1e25a1eea1d"},
		{"comment_column", column.EncodeSegment(comments), "3dff4865d147663152ec64b051fd1fce9596dfa6ae2270b338d1194ccd0ad021"},
		{"zeros_64k", make([]byte, 64<<10), "04255b1c36d648439014b3c729a014a4bf54a37246f0d64018a0c6f78a3e0055"},
		{"random_64k", randomBytes(11, 64<<10), "c69b3858246a5e9ea20812037b41e350b92ca3dbe7dd90799934aff811d72446"},
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestFlateCodecGolden pins the stored form of every corpus page to the bytes
// the parent commit wrote, and checks each round-trips.
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
// (ROADMAP 1b): Compress used to build a flate.Writer per page (19
// allocations, 0.8 MiB) and Decompress a flate.Reader plus io.ReadAll's
// doublings (43 KB). With the pools warm each is the one slice it returns.
func TestFlateCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	codec := FlateCodec{}
	page := randomBytes(5, 1<<10) // incompressible: stored-block page
	stored := codec.Compress(page)

	if got := testing.AllocsPerRun(100, func() { codec.Compress(page) }); got > 2 {
		t.Errorf("Compress of a 1 KB page: %.0f allocations, limit 2 — is a compressor built per page again?", got)
	}
	var err error
	if got := testing.AllocsPerRun(100, func() { _, err = codec.Decompress(stored) }); got > 2 || err != nil {
		t.Errorf("Decompress of a 1 KB stored-block page: %.0f allocations (err %v), limit 2", got, err)
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = codec.Decompress(stored)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(2*len(page)) {
		t.Errorf("Decompress allocates %d bytes for a %d-byte page, limit 2x", perRun, len(page))
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

func BenchmarkFlateCodecCompress(b *testing.B) {
	for _, kb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			page := benchPage(kb << 10)
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = FlateCodec{}.Compress(page)
			}
		})
	}
}

func BenchmarkFlateCodecDecompress(b *testing.B) {
	for _, kb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			page := benchPage(kb << 10)
			stored := FlateCodec{}.Compress(page)
			b.SetBytes(int64(len(page)))
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
