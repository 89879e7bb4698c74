package buffer

import (
	"fmt"

	"cloudiq/internal/deflate"
)

// Codec compresses page images before they reach permanent storage and
// decompresses them into the buffer cache. Pages are cached decompressed
// (§2); the stored size recorded in the blockmap is the compressed size.
type Codec interface {
	// Compress returns the stored form of src.
	Compress(src []byte) []byte
	// Decompress reverses Compress.
	Decompress(src []byte) ([]byte, error)
}

// NopCodec stores pages uncompressed.
type NopCodec struct{}

// Compress implements Codec.
func (NopCodec) Compress(src []byte) []byte { return src }

// Decompress implements Codec.
func (NopCodec) Decompress(src []byte) ([]byte, error) { return src, nil }

// FlateCodec applies DEFLATE page-level compression, the reproduction's
// stand-in for SAP IQ's page compression. It has no state of its own: every
// FlateCodec shares internal/deflate's pooled compressors, and both methods
// return slices the caller owns.
type FlateCodec struct{}

// Compress implements Codec.
func (FlateCodec) Compress(src []byte) []byte { return deflate.Compress(src) }

// Decompress implements Codec.
func (FlateCodec) Decompress(src []byte) ([]byte, error) {
	out, err := deflate.Decompress(src)
	if err != nil {
		return nil, fmt.Errorf("buffer: decompress page: %w", err)
	}
	return out, nil
}
