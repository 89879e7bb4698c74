// Package deflate is the engine's one DEFLATE implementation: the page codec
// behind buffer.FlateCodec (flush, fill) and the inflate step of the object
// store's select endpoint. It is the only package that imports compress/flate.
//
// A flate.Writer is ≈0.8 MiB of hash tables and window and a flate reader
// ≈43 KB, while a page is about 1 KB, so building either per page costs far
// more than the compression itself. Both are therefore kept in sync.Pools and
// re-armed with Reset, which produces the same bytes as a fresh instance. The
// collector empties the pools, so the number of live compressors follows the
// number of goroutines compressing at once (about one per P), not the number
// of pages or flush workers.
package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// level is the one compression level pages are stored at. Stored bytes are
// part of the on-store format's fingerprints; changing it changes them.
const level = flate.DefaultCompression

type deflater struct {
	w   *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	// NewWriter fails only for a level outside [-2, 9].
	d.w, _ = flate.NewWriter(&d.buf, level)
	return d
}}

// Compress returns the DEFLATE stream of src. The result is freshly allocated
// and owned by the caller.
func Compress(src []byte) []byte {
	d := deflaters.Get().(*deflater)
	d.buf.Reset()
	d.w.Reset(&d.buf)
	// Writes into a bytes.Buffer cannot fail.
	_, _ = d.w.Write(src)
	_ = d.w.Close()
	out := owned(&d.buf)
	deflaters.Put(d)
	return out
}

// resetReader is what flate.NewReader documents every reader it returns to be.
type resetReader interface {
	io.Reader
	flate.Resetter
}

type inflater struct {
	r   resetReader
	src bytes.Reader
	buf bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.r = flate.NewReader(&f.src).(resetReader)
	return f
}}

// Decompress inflates a stream written by Compress, ignoring anything after
// the stream's final block. The result is freshly allocated and owned by the
// caller. A truncated or corrupt stream returns the flate package's error; the
// pooled reader is re-armed on its next use, so one bad page cannot affect the
// next.
func Decompress(src []byte) ([]byte, error) {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	f.src.Reset(src)
	f.buf.Reset()
	// Reset of a flate reader always returns nil.
	_ = f.r.Reset(&f.src, nil)
	if _, err := f.buf.ReadFrom(f.r); err != nil {
		return nil, err
	}
	return owned(&f.buf), nil
}

// owned returns an exact-size, never-nil copy of the pooled scratch: the
// scratch keeps its capacity for the next page, the caller keeps the copy
// (the OCM and the buffer cache retain it).
func owned(scratch *bytes.Buffer) []byte {
	out := make([]byte, scratch.Len())
	copy(out, scratch.Bytes())
	return out
}
