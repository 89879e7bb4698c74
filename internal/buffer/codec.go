package buffer

import (
	"fmt"

	"cloudiq/internal/column"
	"cloudiq/internal/deflate"
)

// pageCodec turns a page image into its stored form and back. Pages are
// cached decompressed (§2), in the form the table wrote them; the stored
// size recorded in the blockmap is the compressed size. FlateCodec is the
// only stored form; the interface exists so a test can hold compressions to
// force an interleaving.
type pageCodec interface {
	// Compress returns the stored form of src.
	Compress(src []byte) []byte
	// Decompress reverses Compress.
	Decompress(src []byte) ([]byte, error)
}

// FlateCodec applies DEFLATE page-level compression, the reproduction's
// stand-in for SAP IQ's page compression, to every page the pool stores, and
// nothing else: the page it is given is the page it stores and gives back.
// It has no state of its own: every FlateCodec shares internal/deflate's
// pooled scratch, and both methods return slices the caller owns.
type FlateCodec struct{}

// Compress returns the stored form of src. A compact decimal page
// (column.Compact's EncDecimalFloat) is already n-bit packed, and DEFLATE
// stores it whatever it tries, so it is written as stored blocks without a
// parse; any other page is deflated. Both are plain DEFLATE: a page that only
// begins with those two bytes is stored too, and still reads back whole.
func (FlateCodec) Compress(src []byte) []byte {
	if len(src) >= 2 && column.Type(src[0]) == column.Float64 && column.Encoding(src[1]) == column.EncDecimalFloat {
		return deflate.Store(src)
	}
	return deflate.Compress(src)
}

// Decompress reverses Compress.
func (FlateCodec) Decompress(src []byte) ([]byte, error) {
	out, err := deflate.Decompress(src)
	if err != nil {
		return nil, fmt.Errorf("buffer: decompress page: %w", err)
	}
	return out, nil
}
