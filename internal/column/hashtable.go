package column

import (
	"math"
	"math/bits"
)

// HashTable indexes rows of key columns for the hash operators: join build
// sides and group-by keys both go through it. Hashes are computed a column
// at a time; slots are an open-addressing, linear-probing, power-of-two
// array; and two keys are equal when every column compares equal
// under its own type — no byte encoding of a key is ever built, so a key of
// any shape takes the same path and values of different columns cannot run
// into each other. Floats hash and compare by bit pattern: -0.0 and +0.0 are
// different keys and a NaN equals itself.
//
// The hash uses fixed constants, so a table's layout is a pure function of
// the rows it was given; and nothing a caller can observe (the ids Insert and
// Find return, the order of Keys) depends on hash values at all.
//
// The zero HashTable is an empty table that owns its key columns: Insert
// appends each new key to them and hands out dense ids in first-seen order.
// IndexRows instead indexes columns the caller already holds, in place. Row
// numbers and ids are int32: a table holds fewer than 2^31 rows.
type HashTable struct {
	keys    []*Vector // stored key columns; a slot's row indexes them
	inPlace bool      // keys are the caller's (IndexRows) and complete
	slots   []uint64  // high 32 bits of the hash <<32 | stored row+1; 0 is empty
	n       int       // occupied slots, i.e. distinct keys
	hashes  []uint64  // scratch: the current batch's hashes
}

// IndexRows builds a table over the first n rows of keys without copying
// them: a key's stored row is the first row that holds it. ids[r] is set to
// that row for every r (so ids[r] == r exactly where a key first appears),
// and Find answers with those rows. keys must not change while the table is
// in use.
func IndexRows(keys []*Vector, n int, ids []int32) (*HashTable, []int32) {
	t := &HashTable{keys: keys, inPlace: true}
	t.rehash(slotsFor(n))
	return t, t.probe(keys, n, ids, true)
}

// Len returns the number of distinct keys in the table.
func (t *HashTable) Len() int { return t.n }

// Keys returns the key columns of a table that owns them: row i is the key
// with id i. It is nil until the first Insert.
func (t *HashTable) Keys() []*Vector { return t.keys }

// Insert looks up the first n rows of keys, adding each key it has not seen,
// and sets ids[r] to the id of row r's key. Ids are dense and in first-seen
// order, so a row introduced a new key exactly when its id equals the number
// of keys before it. Every call must pass columns of the same types in the
// same order. ids is reused when it is large enough.
func (t *HashTable) Insert(keys []*Vector, n int, ids []int32) []int32 {
	if t.keys == nil {
		t.keys = make([]*Vector, len(keys))
		for c, k := range keys {
			t.keys[c] = NewVector(k.Typ)
		}
	}
	return t.probe(keys, n, ids, true)
}

// Find looks up the first n rows of keys and sets ids[r] to the stored row
// (the id, for a table that owns its keys) of row r's key, or -1 when the
// table does not hold it. The columns must match the stored ones in number
// and type.
func (t *HashTable) Find(keys []*Vector, n int, ids []int32) []int32 {
	return t.probe(keys, n, ids, false)
}

func (t *HashTable) probe(keys []*Vector, n int, ids []int32, insert bool) []int32 {
	t.hashes = hashRows(t.hashes, keys, n)
	if cap(ids) < n {
		ids = make([]int32, n)
	}
	ids = ids[:n]
	if len(t.slots) == 0 {
		t.rehash(slotsFor(0))
	}
	for r, h := range t.hashes {
		if insert && 2*(t.n+1) > len(t.slots) {
			t.rehash(2 * len(t.slots))
		}
		mask := uint32(len(t.slots) - 1)
		tag := uint32(h >> 32)
		for i := tag & mask; ; i = (i + 1) & mask {
			s := t.slots[i]
			if s == 0 {
				if !insert {
					ids[r] = -1
					break
				}
				row := int32(r)
				if !t.inPlace {
					row = int32(t.n)
					for c, k := range keys {
						t.keys[c].Append(k, r)
					}
				}
				t.n++
				t.slots[i] = uint64(tag)<<32 | uint64(row+1)
				ids[r] = row
				break
			}
			if uint32(s>>32) == tag {
				row := int32(uint32(s)) - 1
				if equalRows(keys, r, t.keys, int(row)) {
					ids[r] = row
					break
				}
			}
		}
	}
	return ids
}

// slotsFor is the slot count that keeps n keys at or under half load.
func slotsFor(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// rehash moves every entry into a fresh slot array of the given power-of-two
// size. A slot carries the hash bits its position comes from, so no key is
// hashed or compared again.
func (t *HashTable) rehash(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	mask := uint32(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// equalRows reports whether row ar of columns a and row br of columns b hold
// the same key.
func equalRows(a []*Vector, ar int, b []*Vector, br int) bool {
	for c, av := range a {
		bv := b[c]
		switch av.Typ {
		case Int64:
			if av.I64[ar] != bv.I64[br] {
				return false
			}
		case Float64:
			if math.Float64bits(av.F64[ar]) != math.Float64bits(bv.F64[br]) {
				return false
			}
		default:
			if av.Str[ar] != bv.Str[br] {
				return false
			}
		}
	}
	return true
}

// Fixed hash constants (odd, high-entropy: the first two of wyhash's default
// secret). There is deliberately no per-process seed: the simulator's runs
// must be a pure function of their own seeds.
const (
	hashSeed = 0xa0761d6478bd642f
	hashMul  = 0xe7037ed1a0b428db
)

// mix folds the 64-bit value x into the running hash h: a 64×64→128-bit
// multiply with the halves xor-ed together.
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, hashMul)
	return hi ^ lo
}

// hashRows writes one hash per row of the first n rows of keys into dst,
// a column at a time: the type switch runs once per column, not per value.
func hashRows(dst []uint64, keys []*Vector, n int) []uint64 {
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for r := range dst {
		dst[r] = hashSeed
	}
	for _, k := range keys {
		switch k.Typ {
		case Int64:
			for r, x := range k.I64[:n] {
				dst[r] = mix(dst[r], uint64(x))
			}
		case Float64:
			for r, x := range k.F64[:n] {
				dst[r] = mix(dst[r], math.Float64bits(x))
			}
		default:
			for r, s := range k.Str[:n] {
				dst[r] = hashString(dst[r], s)
			}
		}
	}
	return dst
}

// hashString folds s into h eight bytes at a time; the last step takes the
// remaining 0–7 bytes with the length above them, so a string and its
// zero-padded extension differ and a short string costs one step.
func hashString(h uint64, s string) uint64 {
	last := uint64(len(s)) << 56
	for len(s) >= 8 {
		x := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = mix(h, x)
		s = s[8:]
	}
	for i := 0; i < len(s); i++ {
		last |= uint64(s[i]) << (8 * i)
	}
	return mix(h, last)
}
