// Package deflate is the engine's one DEFLATE implementation: the page codec
// behind buffer.FlateCodec (flush, fill) and the inflate step of the object
// store's select endpoint. It is the only package that imports compress/flate,
// whose writer compresses every page; pages are inflated by this package's
// own decoder (inflate.go), which works on the in-memory stream.
//
// A flate.Writer is ≈0.8 MiB of hash tables and window, while a page is
// about 1 KB, so building one per page costs far more than the compression
// itself. Writers are therefore kept in sync.Pools and re-armed with Reset,
// which produces the same bytes as a fresh instance; the inflater's tables
// and output scratch are pooled the same way. The collector empties the
// pools, so the number of live compressors follows the number of goroutines
// compressing at once (about one per P), not the number of pages or flush
// workers.
package deflate

import (
	"bytes"
	"compress/flate"
	"sync"
)

// A page is compressed only as hard as it pays (DESIGN.md "Page codec"). A
// page shorter than storeBelow is written as DEFLATE stored blocks: these
// pages (n-bit ints, dictionary codes, RLE runs) shrink by about 1 % at any
// level, while a deflating Reset alone clears 640 KB of hash tables. Every
// other page is deflated at level, which on this engine's pages is within
// 2 points of level 6's ratio at about half its CPU. Either way the result
// is an ordinary DEFLATE stream: no page flag tells a reader which.
const (
	storeBelow = 1 << 10
	level      = 4
)

type deflater struct {
	w   *flate.Writer
	buf bytes.Buffer
}

func deflaterPool(compression int) *sync.Pool {
	return &sync.Pool{New: func() any {
		d := new(deflater)
		// NewWriter fails only for a level outside [-2, 9].
		d.w, _ = flate.NewWriter(&d.buf, compression)
		return d
	}}
}

// storers hold a 64 KB window and nothing else; deflaters the full match
// state. Keeping them apart means a goroutine that only stores never builds
// the larger one.
var (
	storers   = deflaterPool(flate.NoCompression)
	deflaters = deflaterPool(level)
)

// Compress returns the DEFLATE stream of src. The result is freshly allocated
// and owned by the caller.
func Compress(src []byte) []byte {
	pool := deflaters
	if len(src) < storeBelow {
		pool = storers
	}
	d := pool.Get().(*deflater)
	d.buf.Reset()
	d.w.Reset(&d.buf)
	// Writes into a bytes.Buffer cannot fail.
	_, _ = d.w.Write(src)
	_ = d.w.Close()
	out := owned(d.buf.Bytes())
	pool.Put(d)
	return out
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// Decompress inflates a DEFLATE stream, such as one written by Compress,
// ignoring anything after the stream's final block. The result is freshly
// allocated and owned by the caller. A truncated stream returns an error
// wrapping io.ErrUnexpectedEOF and a corrupt one a flate.CorruptInputError;
// the pooled inflater is re-armed on its next use, so one bad page cannot
// affect the next.
func Decompress(src []byte) ([]byte, error) {
	f := inflaters.Get().(*inflater)
	err := f.inflate(src)
	var out []byte
	if err == nil {
		out = owned(f.out)
	}
	f.in = nil // the pool must not keep the caller's stored image alive
	inflaters.Put(f)
	return out, err
}

// owned returns an exact-size, never-nil copy of the pooled scratch: the
// scratch keeps its capacity for the next page, the caller keeps the copy
// (the OCM and the buffer cache retain it).
func owned(scratch []byte) []byte {
	out := make([]byte, len(scratch))
	copy(out, scratch)
	return out
}
