// Package deflate is the engine's one DEFLATE implementation: the page codec
// behind buffer.FlateCodec (the compression queue, flush, fill) and the
// inflate step of the object store's select endpoint. Both halves are its
// own and work on a page already in memory: the encoder (encode.go) writes
// each page as one block, the decoder (inflate.go) reads any stream
// compress/flate reads. compress/flate is imported only for its error type
// and, in tests, as the reference both halves are held to.
//
// Each half's scratch — the encoder's hash chains, tokens and codes, the
// inflater's tables, and each one's output — is kept in a sync.Pool and
// re-armed per page, so a page costs one allocation, the slice returned, and
// the output depends only on the input. The collector empties the pools, so
// the number of live encoders follows the number of goroutines compressing
// at once (at most one per P), not the number of pages.
package deflate

import "sync"

// A page is compressed only as hard as it pays (DESIGN.md "Page codec"). A
// page shorter than storeBelow is written as DEFLATE stored blocks, in the
// framing compress/flate's NoCompression level writes: these pages (n-bit
// ints, dictionary codes, RLE runs) shrink by about 1 % deflated, for the
// cost of a parse. Every other page is one final block, stored, fixed or
// dynamic, whichever is smallest. Either way the result is an ordinary
// DEFLATE stream: no page flag tells a reader which.
const storeBelow = 1 << 10

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Compress returns the DEFLATE stream of src. The result is freshly allocated
// and owned by the caller, and depends only on src.
func Compress(src []byte) []byte {
	e := encoders.Get().(*encoder)
	e.compress(src)
	out := owned(e.out)
	encoders.Put(e)
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
	var out []byte
	err := f.inflate(src)
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
