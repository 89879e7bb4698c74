package wal

import (
	"encoding/binary"
	"fmt"
)

// Record payloads are little-endian fixed-width fields and length-prefixed
// byte strings: a u16 prefix for names, a u32 prefix for images. The append
// helpers write them; Reader reads them back.

// AppendString16 appends s with a u16 length prefix.
func AppendString16(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

// AppendBytes32 appends p with a u32 length prefix.
func AppendBytes32(b, p []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(p))), p...)
}

// Reader decodes a record payload front to back. The first read past the
// end, or the first error a nested parse returns, sticks: every later read
// returns a zero value, so a parser reads a whole record and checks the
// error once.
type Reader struct {
	p   []byte
	off int
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) Reader { return Reader{p: p} }

// take returns the next n bytes, or nil when n is 0 or r has failed.
func (r *Reader) take(n int) []byte {
	if n == 0 || r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.err = fmt.Errorf("%d bytes wanted at offset %d of %d: %w", n, r.off, len(r.p), ErrCorrupt)
		return nil
	}
	r.off += n
	return r.p[r.off-n : r.off : r.off]
}

// fixed is take for a fixed-width field: n zero bytes once r has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// U8, U16, U32 and U64 read little-endian fixed-width fields.
func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// String16 reads an AppendString16 string.
func (r *Reader) String16() string { return string(r.take(int(r.U16()))) }

// Bytes32 reads an AppendBytes32 byte string. It aliases the payload.
func (r *Reader) Bytes32() []byte { return r.take(int(r.U32())) }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.p) - r.off }

// Err returns the recorded error. A loop over a count read from the
// payload stops at it: every element reads at least a length prefix, so a
// corrupt count costs at most one pass over the bytes.
func (r *Reader) Err() error { return r.err }

// End returns the recorded error, or an error if bytes remain unread.
func (r *Reader) End() error {
	if r.err == nil && r.Len() > 0 {
		r.err = fmt.Errorf("%d trailing bytes: %w", r.Len(), ErrCorrupt)
	}
	return r.err
}

// Decode32 reads an AppendBytes32 image and parses it with parse, unless r
// has already failed, recording parse's error in r.
func Decode32[T any](r *Reader, parse func([]byte) (T, error)) (v T) {
	if p := r.Bytes32(); r.err == nil {
		v, r.err = parse(p)
	}
	return v
}
