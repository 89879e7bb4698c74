package buffer

import (
	"fmt"

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

// Compress returns the stored form of src.
func (FlateCodec) Compress(src []byte) []byte { return deflate.Compress(src) }

// Decompress reverses Compress.
func (FlateCodec) Decompress(src []byte) ([]byte, error) {
	out, err := deflate.Decompress(src)
	if err != nil {
		return nil, fmt.Errorf("buffer: decompress page: %w", err)
	}
	return out, nil
}
